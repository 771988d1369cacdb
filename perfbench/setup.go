package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// digestBook holds the recorded output digests: workload → seed → SHA-256.
type digestBook map[string]map[string]string

func loadDigests(path string) (digestBook, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read digests: %w", err)
	}
	var b digestBook
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse digests %s: %w", path, err)
	}
	return b, nil
}

// verify compares a digest against the recorded one for the seed; a seed
// with no recorded digest is reported, not failed.
func (b digestBook) verify(rep *report, workload string, seed uint64, got string) {
	want, ok := b[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		rep.note("digest %s seed %d: %s (no recorded digest for this seed)", workload, seed, got)
		return
	}
	rep.check(got == want, "%s seed %d: output digest %s, recorded %s", workload, seed, got, want)
	if got == want {
		rep.note("digest %s seed %d: %s matches the recorded digest", workload, seed, got)
	}
}

// setupStats describes the build of the system under test.
type setupStats struct {
	seconds []float64 // one build time per repeat
	heapMB  float64   // live heap with the last build alive, after a GC
	delta   float64   // bytes the last build added to the live heap
}

// measureSetup builds the system repeats times, each from a collected
// heap, and keeps the last build.
func measureSetup[T any](repeats int, build func() T) (T, setupStats) {
	var (
		v      T
		st     setupStats
		m0, m1 runtime.MemStats
	)
	for i := 0; i < repeats; i++ {
		var zero T
		v = zero
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		v = build()
		st.seconds = append(st.seconds, time.Since(start).Seconds())
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	st.delta = float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	return v, st
}

// report records setup_s, heap_mb and model.bytes_per_participant.
func (st setupStats) report(rep *report, participants int) {
	rep.endToEnd("setup_s", "s", median(append([]float64(nil), st.seconds...)), len(st.seconds))
	rep.endToEnd("heap_mb", "MB", st.heapMB, 1)
	rep.layer("model.bytes_per_participant", "bytes", st.delta/float64(participants), participants)
}

// goCounters measures the Go runtime's allocation and GC pause counters
// across one phase of a run.
type goCounters struct {
	start time.Time
	m0    runtime.MemStats
}

func startGoCounters() *goCounters {
	g := &goCounters{}
	runtime.ReadMemStats(&g.m0)
	g.start = time.Now()
	return g
}

// report records go.allocs_per_query and go.gc_pause_ms (pause
// milliseconds per wall second) for the queries the phase mediated.
func (g *goCounters) report(rep *report, queries int) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	wall := time.Since(g.start).Seconds()
	rep.layer("go.allocs_per_query", "count", ratio(float64(m1.Mallocs-g.m0.Mallocs), float64(queries)), queries)
	rep.layer("go.gc_pause_ms", "ms/s", ratio(float64(m1.PauseTotalNs-g.m0.PauseTotalNs)/1e6, wall), int(m1.NumGC-g.m0.NumGC))
}

// notOnPath zeroes the layer metrics of layers a workload does not run.
func notOnPath(rep *report, names ...string) {
	for _, n := range names {
		for _, s := range perLayer {
			if s.name == n {
				rep.layer(n, s.unit, 0, 0)
			}
		}
	}
}
