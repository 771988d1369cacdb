package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runCLI runs the benchmark in-process and decodes its last output line.
func runCLI(t *testing.T, digests string, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "--digests", digests, "--spans-dir", t.TempDir())
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s\n%s", err, out.String(), errOut.String())
	}
	return code, res, out.String()
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints exactly its declared metrics and passes its checks.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				code, res, out := runCLI(t, "digests.json", "--workload", wl.name, "--seed", "1", "--seconds", "1", "--trace", trace)
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d, correct %v:\n%s", code, res.Correct, out)
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if !strings.Contains(out, "matches the recorded digest") && wl.name != "serve-10k" {
					t.Errorf("seed 1 digest not verified:\n%s", out)
				}
			})
		}
	}
}

// TestTamperedDigestFails records a wrong digest for the run's seed; the
// run must print correct=false and exit non-zero.
func TestTamperedDigestFails(t *testing.T) {
	book, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper-sim", "mediate-100k"} {
		t.Run(name, func(t *testing.T) {
			tampered := digestBook{name: {"1": strings.Repeat("0", 64)}}
			for w, seeds := range book {
				if w != name {
					tampered[w] = seeds
				}
			}
			path := filepath.Join(t.TempDir(), "digests.json")
			data, _ := json.Marshal(tampered)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			code, res, out := runCLI(t, path, "--workload", name, "--seed", "1", "--seconds", "1")
			if code == 0 || res.Correct {
				t.Fatalf("tampered digest passed (exit %d):\n%s", code, out)
			}
		})
	}
}

// TestTamperedLedgerFails unbalances each ledger check by one query.
func TestTamperedLedgerFails(t *testing.T) {
	run, err := runSim(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := *run.res
	if err := checkResult(&res); err != nil {
		t.Fatalf("untampered result fails: %v", err)
	}
	res.CompletedQueries--
	if checkResult(&res) == nil {
		t.Error("paper-sim: a completed query went missing and the check passed")
	}
	l := ledger{submitted: 10, mediated: 7, rejected: 1, dropped: 1, errs: 1}
	if err := l.verify(); err != nil {
		t.Fatalf("balanced ledger fails: %v", err)
	}
	l.mediated--
	if l.verify() == nil {
		t.Error("serve-10k: a mediated query went missing and the check passed")
	}
}

// TestTracingKeepsDigest runs one simulation with and without the decorated
// strategy and sink: the output must be byte-identical.
func TestTracingKeepsDigest(t *testing.T) {
	plain, err := runSim(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runSim(2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest {
		t.Fatalf("traced digest %s, untraced %s", traced.digest, plain.digest)
	}
	tot := tr.totals()
	if tot[stAllocator].n != int(traced.res.IssuedQueries-traced.res.DroppedQueries) || tot[stTimeline].n == 0 {
		t.Errorf("spans: %d allocator for %d mediated queries, %d timeline", tot[stAllocator].n,
			traced.res.IssuedQueries-traced.res.DroppedQueries, tot[stTimeline].n)
	}
}

// TestDeclaredMetrics keeps BENCHMARK.json and the printed metrics in step.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s %s, printed %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %s, implemented %s", i, decl.Workloads[i].Name, w.name)
		}
	}
}

// TestRecordDigests rewrites digests.json for seeds 0..31 when
// PERFBENCH_RECORD_DIGESTS=1; a change that alters simulated output must
// say so and re-record deliberately.
func TestRecordDigests(t *testing.T) {
	if os.Getenv("PERFBENCH_RECORD_DIGESTS") == "" {
		t.Skip("set PERFBENCH_RECORD_DIGESTS=1 to re-record digests.json")
	}
	book := digestBook{"paper-sim": {}, "mediate-100k": {}}
	for seed := uint64(0); seed < 32; seed++ {
		run, err := runSim(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		book["paper-sim"][strconv.FormatUint(seed, 10)] = run.digest
		book["mediate-100k"][strconv.FormatUint(seed, 10)] = mediateDigest(t, seed)
	}
	data, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mediateDigest(t *testing.T, seed uint64) string {
	t.Helper()
	stream := newMediateStream(buildMediate(seed), seed)
	for stream.calls < mediateDigestCalls {
		if _, err := stream.allocate(nil); err != nil {
			t.Fatal(err)
		}
	}
	return stream.sum()
}
