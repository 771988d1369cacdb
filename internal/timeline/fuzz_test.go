package timeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzSeeds are the starting corpus of the timeline CSV fuzz targets: a
// recorded timeline, its CRLF and truncated variants, and the malformed
// shapes the decoder must reject or skip without panicking.
func fuzzSeeds(t testing.TB) [][]byte {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	for _, s := range []Snapshot{snap(1), snap(2.5)} {
		if err := sink.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	recorded := buf.String()
	return [][]byte{
		[]byte(recorded),
		[]byte(strings.ReplaceAll(recorded, "\n", "\r\n")),
		[]byte(recorded[:len(recorded)-7]),
		[]byte(""),
		[]byte("\n\n"),
		[]byte("source,time\n"),
		[]byte("source,time,mystery,util_mean\nsim,5,99,0.5\n"),
		[]byte("source,time\nsim,abc\nsim,2\n"),
		[]byte("source,time,,time\nsim,1,,2,3,4\n,\n"),
		[]byte("source,time\nsim,NaN\nsim,-Inf\nsim,1e999\nsim,0x1p-3\n"),
		[]byte("time,source\n1,sim\n"),
	}
}

// finiteRow reports whether every value of s is finite and its Source
// survives the CSV framing (no comma, CR or LF), the domain on which the
// codec promises an exact round trip.
func finiteRow(s *Snapshot) bool {
	if strings.ContainsAny(s.Source, ",\r\n") {
		return false
	}
	for _, f := range fields {
		if v := f.get(s); math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// sameRow compares two snapshots bit for bit (so 0 and −0 differ).
func sameRow(a, b *Snapshot) bool {
	if a.Source != b.Source {
		return false
	}
	for _, f := range fields {
		if math.Float64bits(f.get(a)) != math.Float64bits(f.get(b)) {
			return false
		}
	}
	return true
}

// roundTrip encodes rows with CSVSink and decodes them back with ReadCSV.
func roundTrip(t *testing.T, rows []Snapshot) []Snapshot {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	for _, s := range rows {
		if err := sink.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("decoding the encoder's own output: %v", err)
	}
	return got
}

// FuzzReadCSV fuzzes the timeline decoder behind sqlb-top's replay path,
// which reads arbitrary files. Under any bytes, ReadCSV must not panic;
// every decoded row with finite values must survive encode→decode
// exactly; and a snapshot whose values are the input's bytes read as
// float64s (non-finite ones zeroed) must round-trip exactly too. Run
// longer with
//
//	go test -run '^$' -fuzz FuzzReadCSV -fuzztime 60s ./internal/timeline
func FuzzReadCSV(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, _ := ReadCSV(bytes.NewReader(data))
		var finite []Snapshot
		for i := range rows {
			if finiteRow(&rows[i]) {
				finite = append(finite, rows[i])
			}
		}
		back := roundTrip(t, finite)
		if len(back) != len(finite) {
			t.Fatalf("round trip decoded %d rows, encoded %d", len(back), len(finite))
		}
		for i := range finite {
			if !sameRow(&back[i], &finite[i]) {
				t.Fatalf("row %d: round trip %+v, encoded %+v", i, back[i], finite[i])
			}
		}

		s := Snapshot{Source: "sim"}
		for i, f := range fields {
			var word [8]byte
			if i*8 < len(data) {
				copy(word[:], data[i*8:])
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			f.set(&s, v)
		}
		if back := roundTrip(t, []Snapshot{s}); len(back) != 1 || !sameRow(&back[0], &s) {
			t.Fatalf("round trip of %+v decoded %+v", s, back)
		}
	})
}

// FuzzTailerPoll fuzzes the live tailing path: the first 1 KiB of the
// bytes is appended to a file in chunks of 1 to 64 bytes, with a Poll
// after every chunk, so Poll keeps seeing half-written lines. Poll must not
// panic, and the rows it delivers up to its first error must be exactly
// the rows ReadCSV decodes from the same bytes in one piece up to its
// first error, so chunking is invisible. Run longer with
//
//	go test -run '^$' -fuzz FuzzTailerPoll -fuzztime 60s ./internal/timeline
func FuzzTailerPoll(f *testing.F) {
	for i, seed := range fuzzSeeds(f) {
		f.Add(seed, uint8(i*7))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		// Every chunk costs a write and a Poll; 1 KiB (a header and a few
		// rows) keeps one execution cheap enough to fuzz and minimize.
		if len(data) > 1<<10 {
			data = data[:1<<10]
		}
		want, wantErr := ReadCSV(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "run.csv")
		w, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		tail, err := OpenTail(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()

		size := 1 + int(chunk)%64
		var got []Snapshot
		var gotErr error
		for off := 0; off < len(data) && gotErr == nil; off += size {
			end := min(off+size, len(data))
			if _, err := w.Write(data[off:end]); err != nil {
				t.Fatal(err)
			}
			var rows []Snapshot
			rows, gotErr = tail.Poll()
			got = append(got, rows...)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Poll error %v, ReadCSV error %v", gotErr, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, wantErr) && gotErr.Error() != wantErr.Error() {
			t.Fatalf("Poll error %q, ReadCSV error %q", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("Poll delivered %d rows, ReadCSV %d", len(got), len(want))
		}
		for i := range want {
			if !sameRow(&got[i], &want[i]) {
				t.Fatalf("row %d: Poll %+v, ReadCSV %+v", i, got[i], want[i])
			}
		}
	})
}
