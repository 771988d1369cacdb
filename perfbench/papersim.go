package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"sqlb"
	"sqlb/internal/timeline"
)

// paper-sim: the Table 2 population as a captive system at constant
// workload 0.8. The simulated horizon is fixed because per-query cost
// grows with simulated time (the satisfaction windows fill up).
const (
	simDuration       = 150.0 // simulated seconds per simulation
	simSampleInterval = 1.0   // one timeline row per simulated second
	simWorkload       = 0.8
	simSetupRepeats   = 200
)

func simOptions(seed uint64, strategy sqlb.Allocator, sink timeline.Sink) sqlb.SimOptions {
	return sqlb.SimOptions{
		Config:         sqlb.DefaultConfig(),
		Strategy:       strategy,
		Workload:       sqlb.ConstantWorkload(simWorkload),
		Duration:       simDuration,
		Seed:           seed,
		SampleInterval: simSampleInterval,
		Timeline:       sink,
	}
}

// simSeed is the seed of the k-th simulation of a run: the run seed
// itself first, so recorded digests apply to it.
func simSeed(seed uint64, k int) uint64 { return seed + uint64(k)<<32 }

// rowClock times the wall interval between consecutive sampled rows — the
// host time the simulator takes to advance one sample interval — and
// counts the queries issued in it.
type rowClock struct {
	inner     timeline.Sink
	last      time.Time
	lastT     float64
	intervals []float64 // wall ms per interval
	rates     []float64 // queries issued per wall second, per interval
}

func (c *rowClock) Append(s timeline.Snapshot) error {
	if dt := s.Time - c.lastT; dt > 0 {
		now := time.Now()
		wall := now.Sub(c.last)
		c.intervals = append(c.intervals, float64(wall)/1e6)
		c.rates = append(c.rates, s.QPSIn*dt/wall.Seconds())
		c.last, c.lastT = now, s.Time
	}
	return c.inner.Append(s)
}

func (c *rowClock) Close() error { return c.inner.Close() }

// simRun is one measured simulation.
type simRun struct {
	seed      uint64
	res       *sqlb.SimResult
	runTime   time.Duration
	digest    string
	intervals []float64
	rates     []float64
}

// runSim builds and runs one simulation; with a tracer the strategy and
// the timeline sink are decorated with spans. The digest covers the
// streamed timeline CSV followed by the serialized Result.
func runSim(seed uint64, tr *tracer) (simRun, error) {
	h := sha256.New()
	csv := timeline.NewCSVSink(h)
	var sink timeline.Sink = csv
	strategy := sqlb.NewSQLB()
	if tr != nil {
		sink = tracedSink{inner: csv, tr: tr}
		strategy = tracedAllocator{inner: strategy, tr: tr}
	}
	clock := &rowClock{inner: sink}
	sim, err := sqlb.NewSimulation(simOptions(seed, strategy, clock))
	if err != nil {
		return simRun{}, err
	}
	var root int32
	if tr != nil {
		root = tr.begin(stSimRun, seed)
	}
	start := time.Now()
	clock.last = start
	res := sim.Run()
	run := simRun{seed: seed, res: res, runTime: time.Since(start), intervals: clock.intervals, rates: clock.rates}
	if tr != nil {
		tr.end(root)
	}
	if err := csv.Close(); err != nil {
		return run, fmt.Errorf("seed %d: timeline: %w", seed, err)
	}
	if err := sim.TimelineErr(); err != nil {
		return run, fmt.Errorf("seed %d: timeline: %w", seed, err)
	}
	io.WriteString(h, serializeResult(res))
	run.digest = hex.EncodeToString(h.Sum(nil))
	return run, checkResult(res)
}

// checkResult fails a Result that carries an error or whose query ledger
// does not balance: issued = completed + dropped + in flight at the end.
func checkResult(res *sqlb.SimResult) error {
	if res.Err != nil {
		return fmt.Errorf("seed %d: Result.Err: %w", res.Seed, res.Err)
	}
	if got := res.CompletedQueries + res.DroppedQueries + uint64(res.InFlightAtEnd); got != res.IssuedQueries {
		return fmt.Errorf("seed %d: ledger: issued %d != completed %d + dropped %d + in flight %d",
			res.Seed, res.IssuedQueries, res.CompletedQueries, res.DroppedQueries, res.InFlightAtEnd)
	}
	return nil
}

// serializeResult renders every simulated outcome of a Result: counters,
// response-time distribution, each §4 sample and the churn ledgers.
func serializeResult(r *sqlb.SimResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d dur=%v issued=%d completed=%d dropped=%d inflight=%d mean=%v max=%v p50=%v p95=%v p99=%v\n",
		r.Method, r.Seed, r.Duration, r.IssuedQueries, r.CompletedQueries, r.DroppedQueries, r.InFlightAtEnd,
		r.MeanResponseTime, r.MaxResponseTime, r.ResponseHistogram.Quantile(0.5),
		r.ResponseHistogram.Quantile(0.95), r.ResponseHistogram.Quantile(0.99))
	for _, s := range append(append([]sqlb.Sample{}, r.Samples...), r.Final) {
		fmt.Fprintf(&b, "sample %+v\n", s)
	}
	for _, d := range r.ProviderDepartures {
		fmt.Fprintf(&b, "dep %+v\n", d)
	}
	for _, d := range r.ProviderJoins {
		fmt.Fprintf(&b, "join %+v\n", d)
	}
	for _, d := range r.ConsumerDepartures {
		fmt.Fprintf(&b, "cdep %+v\n", d)
	}
	return b.String()
}

// simulate runs simulations with consecutive seeds until the time is up,
// and at least one.
func simulate(o options, seconds float64, rep *report) []simRun {
	var runs []simRun
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		run, err := runSim(simSeed(o.seed, k), nil)
		rep.checkErr(err)
		if run.res == nil {
			break
		}
		runs = append(runs, run)
	}
	return runs
}

func runPaperSim(o options, rep *report) {
	_, setup := measureSetup(simSetupRepeats, func() *sqlb.Simulation {
		sim, err := sqlb.NewSimulation(simOptions(o.seed, sqlb.NewSQLB(), timeline.NewCSVSink(io.Discard)))
		rep.checkErr(err)
		return sim
	})
	cfg := sqlb.DefaultConfig()
	setup.report(rep, cfg.Providers+cfg.Consumers)

	measure := o.seconds
	if o.trace {
		measure = o.seconds / 3
	}
	goc := startGoCounters()
	runs := simulate(o, measure, rep)
	if len(runs) == 0 {
		return
	}
	var rates, intervals []float64
	for _, r := range runs {
		rates = append(rates, r.rates...)
		intervals = append(intervals, r.intervals...)
		rep.attempted += int64(r.res.IssuedQueries)
		rep.failed += int64(r.res.DroppedQueries)
	}
	goc.report(rep, int(rep.attempted))
	o.digests.verify(rep, "paper-sim", runs[0].seed, runs[0].digest)
	untraced := median(rates)
	rep.endToEnd("throughput_qps", "1/s", untraced, len(rates))
	rep.endToEnd("latency_p50_ms", "ms", quantile(intervals, 0.5), len(intervals))
	rep.alsoMeasured("latency_p99_ms", "ms", quantile(intervals, 0.99), len(intervals))
	first := runs[0].res
	rep.layer("sim.issued", "count", float64(first.IssuedQueries), 1)
	rep.layer("sim.completed", "count", float64(first.CompletedQueries), 1)
	rep.layer("sim.dropped", "count", float64(first.DroppedQueries), 1)
	rep.layer("sim.inflight_end", "count", float64(first.InFlightAtEnd), 1)
	if o.trace {
		tracePaperSim(o, rep, runs, untraced)
	}
}

// tracePaperSim reruns the measured seeds with the decorated strategy and
// sink, then replays the same population size and arrival rate through
// the stage entry points, and reconciles the two.
func tracePaperSim(o options, rep *report, untracedRuns []simRun, untracedQPS float64) {
	tr := newTracer()
	var rates []float64
	var issued, simUS float64
	for i, u := range untracedRuns {
		run, err := runSim(u.seed, tr)
		rep.checkErr(err)
		if run.res == nil {
			return
		}
		rep.check(run.digest == u.digest, "seed %d: traced digest %s differs from untraced %s", u.seed, run.digest, u.digest)
		rates = append(rates, run.rates...)
		issued += float64(run.res.IssuedQueries)
		simUS += run.runTime.Seconds() * 1e6
		if i == 0 {
			rep.note("traced digest seed %d equals untraced: %v", u.seed, run.digest == u.digest)
		}
	}
	tot := tr.totals()
	nSims := float64(tot[stSimRun].n)
	alloc, tl := tot[stAllocator], tot[stTimeline]
	tr.reportAllocator(rep, tot[stSimRun].total)
	rep.layer("timeline.rows", "count", ratio(float64(tl.n), nSims), tl.n)
	rep.layer("timeline.us_per_row", "us", tl.meanUS(), tl.n)
	tracedQPS := median(rates)
	rep.note("tracing overhead: throughput_qps traced %.1f vs untraced %.1f (%+.2f%%)",
		tracedQPS, untracedQPS, 100*(tracedQPS/untracedQPS-1))
	tr.save(rep, o.spansDir, fmt.Sprintf("paper-sim-%d-sim", o.seed))

	// Stage replay over the same population size, arrival rate and
	// simulated horizon, with its own population and query stream.
	cfg := sqlb.DefaultConfig()
	pop := sqlb.NewPopulation(cfg, o.seed)
	rtr := newTracer()
	rp := newReplayer(pop, rtr, true)
	gen := newQueryGen(pop, o.seed, 2)
	rate := simWorkload * pop.TotalCapacity() / cfg.MeanQueryUnitsWeighted()
	for now := gen.rng.ExpFloat64() / rate; now <= simDuration; now += gen.rng.ExpFloat64() / rate {
		if err := rp.mediate(now, gen.next(now)); err != nil {
			rep.checkErr(err)
			break
		}
	}
	lookup, intention, notify, replayAlloc := rp.stageMetrics(rep)
	rtr.save(rep, o.spansDir, fmt.Sprintf("paper-sim-%d-replay", o.seed))

	perQuery := ratio(simUS, issued)
	simAlloc := ratio(alloc.total.Seconds()*1e6, issued)
	timelineUS := ratio(tl.total.Seconds()*1e6, issued)
	self := perQuery - lookup - intention - simAlloc - notify - timelineUS
	rep.layer("sim.us_per_query", "us", perQuery, int(issued))
	rep.layer("sim.engine_self_us_per_query", "us", self, int(issued))
	residual := lookup + intention + replayAlloc + notify + timelineUS + self - perQuery
	rep.note("reconciliation (us/query): sim %.2f = lookup %.3f + intention %.2f + allocator %.2f (in sim) + notify %.2f + timeline %.4f + engine self %.2f",
		perQuery, lookup, intention, simAlloc, notify, timelineUS, self)
	rep.note("reconciliation: replayed stage sum %.2f + timeline + engine self = %.2f vs sim %.2f; residual %+.2f us (%+.1f%%), the replayed minus the in-sim allocator cost",
		lookup+intention+replayAlloc+notify, perQuery+residual, perQuery, residual, 100*ratio(residual, perQuery))
	notOnPath(rep, "mediator.batch_us", "mediator.batch_size_mean", "mediator.queries_per_class_batch",
		"mediator.busy_share", "mediator.queue_wait_ms_p50", "gen.late_ms_max")
}
