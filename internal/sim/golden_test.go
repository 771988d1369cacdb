package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/scenario"
)

// goldenPath holds the recorded cross-refactor determinism pins: a SHA-256
// per case over the serialized Result and the streamed timeline CSV. Every
// refactor (the arena population store, the mediation scratch space, the
// return to a single serial engine) must leave each simulation bit-for-bit
// identical to the recording made before it landed. The keys carry the
// "/shards=1" suffix of the original recording, made when the engine
// still had a shard count; the serial engine is that recording.
//
// Regenerate deliberately (a behaviour-changing PR must say so) with:
//
//	SQLB_UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenDeterminism
const goldenPath = "testdata/golden_determinism.json"

// goldenCases is the determinism grid: the homogeneous paper setup, a
// heterogeneous capability workload, and every scenario preset, each with
// a timeline sink attached (full autonomy on all but the homogeneous case).
func goldenCases() []struct {
	name   string
	mutate func(*Options)
} {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"homogeneous", nil},
		{"heterogeneous", func(o *Options) {
			o.Config = o.Config.WithClasses(6)
			o.Config.CapabilitySelectivity = 0.34
			o.Config.ClassSkew = 1
			o.Autonomy = FullAutonomy()
		}},
	}
	for _, name := range scenario.Names() {
		preset, ok := scenario.Preset(name)
		if !ok {
			panic("preset vanished: " + name)
		}
		cases = append(cases, struct {
			name   string
			mutate func(*Options)
		}{"scenario-" + name, func(o *Options) {
			o.Scenario = preset
			o.SampleInterval = o.Duration / 40
			o.Autonomy = FullAutonomy()
		}})
	}
	return cases
}

// TestGoldenDeterminism compares every golden case against the recorded
// digests.
func TestGoldenDeterminism(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	update := os.Getenv("SQLB_UPDATE_GOLDEN") != ""
	if err != nil && !update {
		t.Fatalf("read goldens (SQLB_UPDATE_GOLDEN=1 to record): %v", err)
	}
	want := map[string]string{}
	if err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	}

	got := map[string]string{}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, res, csv := runCase(t, allocator.NewSQLB(), tc.mutate)
			sum := sha256.Sum256(append([]byte(res), csv...))
			key, digest := tc.name+"/shards=1", hex.EncodeToString(sum[:])
			got[key] = digest
			if update {
				return
			}
			if want[key] == "" {
				t.Errorf("%s: no recorded golden (SQLB_UPDATE_GOLDEN=1 to record)", key)
			} else if digest != want[key] {
				t.Errorf("%s: digest %s differs from recorded %s — the run is no longer byte-identical to the pre-refactor engine",
					key, digest, want[key])
			}
		})
	}

	if update {
		// encoding/json writes map keys sorted, so the file diffs cleanly.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden digests to %s", len(got), goldenPath)
		return
	}

	if len(got) != len(want) {
		t.Errorf("got %d digests, goldens record %d", len(got), len(want))
	}
}

// TestGoldenRerunIdentity runs the whole golden grid twice in one process,
// the second pass in reverse order, and requires each case's Result and
// timeline CSV to match its first run byte for byte. The digests pin each
// run against the recording; this pins that no state (pooled scratch, a
// shared strategy table, a sink) carries over from one run into the next.
func TestGoldenRerunIdentity(t *testing.T) {
	cases := goldenCases()
	firstRes := make([]string, len(cases))
	firstCSV := make([][]byte, len(cases))
	for i, tc := range cases {
		_, firstRes[i], firstCSV[i] = runCase(t, allocator.NewSQLB(), tc.mutate)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		tc := cases[i]
		t.Run(tc.name, func(t *testing.T) {
			_, res, csv := runCase(t, allocator.NewSQLB(), tc.mutate)
			if res != firstRes[i] {
				t.Fatalf("rerun Result differs from the first run:\n%s\nvs\n%s", res, firstRes[i])
			}
			if !bytes.Equal(csv, firstCSV[i]) {
				t.Fatalf("rerun timeline CSV differs from the first run (%d vs %d bytes)",
					len(csv), len(firstCSV[i]))
			}
		})
	}
}
