package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"sqlb"
)

// mediate-100k: one caller, Mediator.Allocate back to back over the
// BenchmarkMediate100k population (every provider capable, so |Pq| =
// 100k). The working set is hundreds of MB, far beyond the caches.
const (
	mediateSetupRepeats = 11
	mediateStep         = 0.01 // simulated seconds between calls
	mediateDigestCalls  = 100  // the digest covers the first calls of the stream
	mediateWarmCalls    = 50   // not timed: per-call cost settles over the first few dozen calls
	mediateWindow       = 2 * time.Second
)

func mediateConfig() sqlb.Config {
	cfg := sqlb.DefaultConfig()
	cfg.Providers = 100_000
	cfg.Consumers = 1000
	cfg.ProviderK = 100
	cfg.ConsumerK = 50
	cfg.PriorSamples = 20
	cfg.HashedConsumerPrefs = true
	return cfg
}

type mediateSystem struct {
	pop *sqlb.Population
	med *sqlb.Mediator
}

func buildMediate(seed uint64) mediateSystem {
	pop := sqlb.NewPopulation(mediateConfig(), seed)
	med := sqlb.NewMediator(sqlb.NewSQLB())
	med.Match = sqlb.BuildMatchIndex(pop)
	return mediateSystem{pop: pop, med: med}
}

// mediateStream issues the seeded query stream. The selected provider IDs
// of its first mediateDigestCalls calls feed the digest.
type mediateStream struct {
	sys    mediateSystem
	gen    *queryGen
	calls  int
	digest hash.Hash
}

func newMediateStream(sys mediateSystem, seed uint64) *mediateStream {
	return &mediateStream{sys: sys, gen: newQueryGen(sys.pop, seed, 1), digest: sha256.New()}
}

// sum is the hex digest of the selected-ID stream.
func (s *mediateStream) sum() string { return hex.EncodeToString(s.digest.Sum(nil)) }

// allocate mediates the next query of the stream and returns its wall time.
func (s *mediateStream) allocate(tr *tracer) (time.Duration, error) {
	now := float64(s.calls) * mediateStep
	q := s.gen.next(now)
	s.calls++
	var sp int32
	if tr != nil {
		sp = tr.begin(stAllocate, q.ID)
	}
	start := time.Now()
	alloc, err := s.sys.med.Allocate(now, q, s.sys.pop)
	d := time.Since(start)
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return d, fmt.Errorf("query %d: %w", q.ID, err)
	}
	if err := checkSelection(q, alloc.Pq, alloc.Selected); err != nil {
		return d, err
	}
	if s.calls <= mediateDigestCalls {
		var b [8]byte
		for _, idx := range alloc.Selected {
			binary.LittleEndian.PutUint64(b[:], uint64(alloc.Pq[idx].ID))
			s.digest.Write(b[:])
		}
	}
	return d, nil
}

// loop calls allocate until the time is up and the digest is complete,
// returning the per-call latencies in ms and the calls per second of each
// mediateWindow.
func (s *mediateStream) loop(rep *report, dur time.Duration, tr *tracer) (lat, rates []float64) {
	start := time.Now()
	win, n := start, 0
	for time.Since(start) < dur || s.calls < mediateDigestCalls {
		d, err := s.allocate(tr)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.checkErr(err)
			continue
		}
		if s.calls <= mediateWarmCalls {
			win = time.Now()
			continue
		}
		lat = append(lat, float64(d)/1e6)
		n++
		if d := time.Since(win); d >= mediateWindow {
			rates = append(rates, float64(n)/d.Seconds())
			win, n = time.Now(), 0
		}
	}
	if len(rates) == 0 && n > 0 { // a run shorter than one window
		rates = append(rates, float64(n)/time.Since(win).Seconds())
	}
	return lat, rates
}

func runMediate(o options, rep *report) {
	sys, setup := measureSetup(mediateSetupRepeats, func() mediateSystem { return buildMediate(o.seed) })
	cfg := mediateConfig()
	setup.report(rep, cfg.Providers+cfg.Consumers)
	stream := newMediateStream(sys, o.seed)

	total := time.Duration(o.seconds * float64(time.Second))
	measure := total
	if o.trace {
		measure = total / 3
	}
	goc := startGoCounters()
	start := time.Now()
	lat, rates := stream.loop(rep, measure, nil)
	wall := time.Since(start)
	goc.report(rep, stream.calls)
	o.digests.verify(rep, "mediate-100k", o.seed, stream.sum())

	untraced := median(rates)
	rep.endToEnd("throughput_qps", "1/s", untraced, len(rates))
	rep.endToEnd("latency_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	rep.alsoMeasured("latency_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	rep.note("wall-clock rate including the caller's loop: %.2f calls/s over %d calls", float64(stream.calls)/wall.Seconds(), stream.calls)
	if o.trace {
		traceMediate(o, rep, stream, measure, untraced)
	}
}

// traceMediate continues the stream with the decorated strategy, then
// replays further queries through the stage entry points.
func traceMediate(o options, rep *report, stream *mediateStream, measure time.Duration, untracedQPS float64) {
	tr := newTracer()
	med := stream.sys.med
	plain := med.Strategy
	med.Strategy = tracedAllocator{inner: plain, tr: tr}
	_, rates := stream.loop(rep, measure, tr)
	med.Strategy = plain
	traced := median(rates)
	rep.note("tracing overhead: throughput_qps traced %.3f vs untraced %.3f (%+.2f%%)", traced, untracedQPS, 100*(traced/untracedQPS-1))
	tr.reportAllocator(rep, tr.totals()[stAllocate].total)
	tr.save(rep, o.spansDir, fmt.Sprintf("mediate-100k-%d-allocate", o.seed))

	rtr := newTracer()
	rp := newReplayer(stream.sys.pop, rtr, false)
	start := time.Now()
	for time.Since(start) < measure {
		now := float64(stream.calls) * mediateStep
		stream.calls++
		if err := rp.mediate(now, stream.gen.next(now)); err != nil {
			rep.checkErr(err)
			break
		}
	}
	rp.stageMetrics(rep)
	rtr.save(rep, o.spansDir, fmt.Sprintf("mediate-100k-%d-replay", o.seed))
	notOnPath(rep, "mediator.batch_us", "mediator.batch_size_mean", "mediator.queries_per_class_batch",
		"mediator.busy_share", "mediator.queue_wait_ms_p50", "gen.late_ms_max",
		"sim.us_per_query", "sim.engine_self_us_per_query", "sim.issued", "sim.completed",
		"sim.dropped", "sim.inflight_end", "timeline.rows", "timeline.us_per_row")
}
