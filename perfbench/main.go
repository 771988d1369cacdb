// Command perfbench is the repository's benchmark: one workload per run,
// end-to-end metrics by default, per-layer metrics with --trace 1, output
// checks that fail the run. See README.md in this directory for why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricSpec is one metric the benchmark promises to print.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0 on every workload. BENCHMARK.json lists the same names.
// latency_p99_ms is measured and printed on every run but not declared:
// its run-to-run spread on a shared host is wider than any bound the
// benchmark may set (README.md, "End-to-end metrics").
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics, printed with --trace 1 on every
// workload. A layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"allocator.us_per_call", "us"},
	{"allocator.calls", "count"},
	{"allocator.share", "share"},
	{"intention.us_per_query", "us"},
	{"intention.ns_per_provider", "ns"},
	{"mediator.notify_us_per_query", "us"},
	{"matchmaking.lookup_us", "us"},
	{"matchmaking.pq_mean", "count"},
	{"mediator.batch_us", "us"},
	{"mediator.batch_size_mean", "count"},
	{"mediator.queries_per_class_batch", "count"},
	{"mediator.busy_share", "share"},
	{"mediator.queue_wait_ms_p50", "ms"},
	{"sim.us_per_query", "us"},
	{"sim.engine_self_us_per_query", "us"},
	{"sim.issued", "count"},
	{"sim.completed", "count"},
	{"sim.dropped", "count"},
	{"sim.inflight_end", "count"},
	{"model.bytes_per_participant", "bytes"},
	{"timeline.rows", "count"},
	{"timeline.us_per_row", "us"},
	{"gen.late_ms_max", "ms"},
	{"go.allocs_per_query", "count"},
	{"go.gc_pause_ms", "ms/s"},
}

// options are one run's inputs.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	digests  digestBook
	spansDir string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(o options, rep *report)
}

var workloads = []workload{
	{"paper-sim", runPaperSim},
	{"serve-10k", runServe},
	{"mediate-100k", runMediate},
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	value float64
	unit  string
	n     int
}

// report collects one run's metrics, its operation counts and the
// failures of its output checks.
type report struct {
	e2e, layers, also map[string]measured
	attempted, failed int64
	failures          []string
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]measured{}, layers: map[string]measured{}, also: map[string]measured{}}
}

func (r *report) endToEnd(name, unit string, v float64, n int) {
	r.e2e[name] = measured{v, unit, n}
}

// alsoMeasured records a metric that is printed but not in the result line.
func (r *report) alsoMeasured(name, unit string, v float64, n int) {
	r.also[name] = measured{v, unit, n}
}

func (r *report) layer(name, unit string, v float64, n int) {
	r.layers[name] = measured{v, unit, n}
}

// check records a failed output check; any failure fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) checkErr(err error) {
	if err != nil {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the report and returns the result line; a missing metric
// is a benchmark bug and fails the run like a failed check.
func (r *report) finish(w io.Writer, trace bool) result {
	specs, got := endToEnd, r.e2e
	if trace {
		specs, got = perLayer, r.layers
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		m, ok := got[s.name]
		if !ok {
			r.failures = append(r.failures, "metric not measured: "+s.name)
			continue
		}
		if m.unit != s.unit {
			r.failures = append(r.failures, fmt.Sprintf("metric %s measured in %s, declared %s", s.name, m.unit, s.unit))
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.failures = append(r.failures, fmt.Sprintf("metric %s has no samples", s.name))
			m.value = 0
		}
		res.Metrics[s.name] = jsonMetric{m.value, s.unit}
	}
	printMetrics(w, "end-to-end metrics", r.e2e)
	printMetrics(w, "also measured, not in the result line", r.also)
	if trace {
		printMetrics(w, "per-layer metrics", r.layers)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (failed_share %.6f)\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	res.Correct = len(r.failures) == 0
	return res
}

func printMetrics(w io.Writer, title string, ms map[string]measured) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (n=%d)\n", n, m.value, m.unit, m.n)
	}
}

// cpuModel reads the processor name for the environment line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sim, serve-10k or mediate-100k")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	digests := fs.String("digests", "perfbench/digests.json", "recorded output digests")
	spans := fs.String("spans-dir", ".bench_build/spans", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper-sim, serve-10k, mediate-100k), --seconds > 0, --trace 0|1\n")
		return 2
	}
	book, err := loadDigests(*digests)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// The engine reads SQLB_SHARDS when its shard count is left at the
	// default; a caller's environment must not switch the measured path.
	if v, ok := os.LookupEnv("SQLB_SHARDS"); ok {
		fmt.Fprintf(stdout, "cleared SQLB_SHARDS=%q\n", v)
		os.Unsetenv("SQLB_SHARDS")
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "env GOMAXPROCS=%d nproc=%d go=%s cpu=%q\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())

	rep := newReport()
	wl.run(options{seed: *seed, seconds: *seconds, trace: *trace == 1, digests: book, spansDir: *spans}, rep)
	res := rep.finish(stdout, *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
