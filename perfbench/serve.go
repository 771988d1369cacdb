package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"sqlb"
	"sqlb/internal/mediator"
)

// serve-10k: the `make serve-bench` population driven through
// MediationServer.MediateBatch with allocations applied. Phase A is an
// open loop at a fixed rate well below saturation (latency); phase B is a
// closed loop of back-to-back batches (throughput). The two alternate in
// blocks of serveCycle, so each samples the host over the whole run.
const (
	serveRate         = 1000.0 // phase A arrivals per second
	serveBatch        = 32     // most due arrivals one worker mediates per batch
	serveQueue        = 1024   // admission bound: a full queue rejects
	serveSetupRepeats = 15
	serveTimeout      = 50 * time.Millisecond
	serveWindow       = 250 * time.Millisecond // phase B throughput window
	serveCycle        = 4 * time.Second        // one phase A block and one phase B block
	serveShareA       = 0.4                    // phase A's share of a cycle
)

func serveConfig() sqlb.Config {
	cfg := sqlb.DefaultConfig().WithClasses(20)
	cfg.Providers = 10000
	cfg.Consumers = 200
	cfg.CapabilitySelectivity = 0.05
	return cfg
}

// serveSystem is one mediation server over its population. The server's
// clock is the offered-load schedule, not the wall clock: phase A sets it
// to each batch's latest scheduled arrival and phase B advances it by
// 1/serveRate per query. Provider load (Definition 8) then follows the
// same schedule however fast the host mediates, so a faster mediator
// shows as more queries per second, not as a different load regime.
type serveSystem struct {
	pop     *sqlb.Population
	srv     *sqlb.MediationServer
	clock   *float64
	matcher *tracedMatcher // nil unless traced
}

func buildServe(seed uint64, tr *tracer) serveSystem {
	pop := sqlb.NewPopulation(serveConfig(), seed)
	index := sqlb.BuildMatchIndex(pop)
	strategy := sqlb.NewSQLB()
	if tr != nil {
		strategy = tracedAllocator{inner: strategy, tr: tr}
	}
	clock := new(float64)
	sys := serveSystem{pop: pop, clock: clock, srv: sqlb.NewMediationServer(strategy, pop, serveTimeout, func() float64 { return *clock })}
	if tr != nil {
		sys.matcher = &tracedMatcher{inner: index, tr: tr}
		sys.srv.SetMatchmaker(sys.matcher)
	} else {
		sys.srv.SetMatchmaker(index)
	}
	sys.srv.SetApply(true)
	return sys
}

// ledger counts every measured query's fate.
type ledger struct {
	submitted, mediated, rejected, dropped, errs int64
}

// verify checks that every submitted query is accounted for once.
func (l ledger) verify() error {
	if l.submitted != l.mediated+l.rejected+l.dropped+l.errs {
		return fmt.Errorf("ledger: submitted %d != mediated %d + rejected %d + dropped %d + errors %d",
			l.submitted, l.mediated, l.rejected, l.dropped, l.errs)
	}
	return nil
}

// account checks and counts one batch's results, skipping the queries
// whose measured flag is false (nil flags: every query is measured). It
// must run before the next MediateBatch call, which reuses the results'
// storage.
func (l *ledger) account(rep *report, qs []*sqlb.Query, res []sqlb.MediationBatchResult, measured []bool) {
	for i, r := range res {
		if measured != nil && !measured[i] {
			continue
		}
		switch {
		case errors.Is(r.Err, mediator.ErrNoProviders):
			l.dropped++
		case r.Err != nil:
			l.errs++
			rep.check(false, "query %d: %v", qs[i].ID, r.Err)
		default:
			l.mediated++
			rep.checkErr(checkSelection(qs[i], r.Alloc.Pq, r.Alloc.Selected))
		}
	}
}

// openStats is what phase A measured.
type openStats struct {
	latMS, waitMS []float64
	lateMax       time.Duration
	batches       int
	batchQueries  int // in measured batches
	queries       int // in every batch, warm-up included
	busy, wall    time.Duration
}

// add folds the statistics of one phase A block into s.
func (s *openStats) add(b openStats) {
	s.latMS = append(s.latMS, b.latMS...)
	s.waitMS = append(s.waitMS, b.waitMS...)
	s.lateMax = max(s.lateMax, b.lateMax)
	s.batches += b.batches
	s.batchQueries += b.batchQueries
	s.queries += b.queries
	s.busy += b.busy
	s.wall += b.wall
}

type arrival struct {
	q        *sqlb.Query
	due      time.Time
	measured bool
}

// openLoop is one block of phase A: a generator goroutine releases
// Poisson arrivals, spaced by gaps drawn from rng, on schedule into a
// bounded queue; the calling goroutine is the one worker,
// coalescing up to serveBatch queued arrivals per batch. Latency runs from
// each arrival's scheduled time, so a stall also delays later arrivals.
//
// Both goroutines spin instead of sleeping or blocking. A goroutine that
// blocks lets its CPU go idle, and waking an idle virtual CPU costs
// whatever the host makes it cost. On a 2-vCPU VM that wake-up, not
// mediation, was most of the p50 (1.1 ms blocking, 0.4 ms spinning), and
// it moved the p99 3x between runs.
func openLoop(rep *report, sys serveSystem, gen *queryGen, rng *rand.Rand, dur, warmup time.Duration, tr *tracer, l *ledger) openStats {
	var st openStats
	ch := make(chan arrival, serveQueue)
	var genSubmitted, genRejected int64
	var lateMax time.Duration
	genDone := make(chan struct{})
	start := time.Now()
	warmEnd, end := start.Add(warmup), start.Add(warmup+dur)
	base := *sys.clock
	go func() {
		defer close(genDone)
		defer close(ch)
		next := start
		for {
			next = next.Add(time.Duration(rng.ExpFloat64() / serveRate * 1e9))
			if next.After(end) {
				return
			}
			for time.Now().Before(next) {
			}
			if late := time.Since(next); late > lateMax {
				lateMax = late
			}
			a := arrival{q: gen.next(base + next.Sub(start).Seconds()), due: next, measured: !next.Before(warmEnd)}
			if a.measured {
				genSubmitted++
			}
			select {
			case ch <- a:
			default:
				if a.measured {
					genRejected++
				}
			}
		}
	}()

	ctx := context.Background()
	batch := make([]arrival, 0, serveBatch)
	qs := make([]*sqlb.Query, 0, serveBatch)
	measured := make([]bool, 0, serveBatch)
	for {
		var a arrival
		var ok bool
		select {
		case a, ok = <-ch:
		default:
			continue
		}
		if !ok {
			break
		}
		batch = append(batch[:0], a)
	coalesce:
		for len(batch) < serveBatch {
			select {
			case more, ok := <-ch:
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
			default:
				break coalesce
			}
		}
		qs, measured = qs[:0], measured[:0]
		for _, b := range batch {
			qs = append(qs, b.q)
			measured = append(measured, b.measured)
		}
		*sys.clock = batch[len(batch)-1].q.IssuedAt
		t0 := time.Now()
		var sp int32
		if tr != nil {
			sp = tr.begin(stBatch, qs[0].ID)
		}
		res := sys.srv.MediateBatch(ctx, qs)
		if tr != nil {
			tr.end(sp)
		}
		t1 := time.Now()
		l.account(rep, qs, res, measured)
		st.queries += len(batch)
		if t0.Before(warmEnd) {
			continue
		}
		st.batches++
		st.batchQueries += len(batch)
		st.busy += t1.Sub(t0)
		for i, b := range batch {
			if b.measured && res[i].Err == nil {
				st.latMS = append(st.latMS, float64(t1.Sub(b.due))/1e6)
				st.waitMS = append(st.waitMS, float64(t0.Sub(b.due))/1e6)
			}
		}
	}
	<-genDone
	st.wall = time.Since(warmEnd)
	st.lateMax = lateMax
	l.submitted += genSubmitted
	l.rejected += genRejected
	return st
}

// closedLoop is phase B: batches of serveBatch back to back. It returns
// the queries-per-second of each serveWindow.
func closedLoop(rep *report, sys serveSystem, gen *queryGen, dur time.Duration, l *ledger) []float64 {
	ctx := context.Background()
	qs := make([]*sqlb.Query, serveBatch)
	var rates []float64
	next := func() {
		for j := range qs {
			*sys.clock += 1 / serveRate
			qs[j] = gen.next(*sys.clock)
		}
	}
	for i := 0; i < 10; i++ { // warm the batch scratch and the ci cache
		next()
		sys.srv.MediateBatch(ctx, qs)
	}
	start := time.Now()
	win, n := start, 0
	for time.Since(start) < dur {
		next()
		res := sys.srv.MediateBatch(ctx, qs)
		l.submitted += int64(len(qs))
		l.account(rep, qs, res, nil)
		n += len(qs)
		if d := time.Since(win); d >= serveWindow {
			rates = append(rates, float64(n)/d.Seconds())
			win, n = time.Now(), 0
		}
	}
	return rates
}

func runServe(o options, rep *report) {
	sys, setup := measureSetup(serveSetupRepeats, func() serveSystem { return buildServe(o.seed, nil) })
	cfg := serveConfig()
	setup.report(rep, cfg.Providers+cfg.Consumers)
	gen := newQueryGen(sys.pop, o.seed, 1)
	var l ledger
	total := time.Duration(o.seconds * float64(time.Second))

	if o.trace {
		traceServe(o, rep, sys, gen, total, &l)
	} else {
		// A warm-up of total/20 opens the first phase A block; the rest is
		// whole cycles of a phase A block followed by a phase B block.
		rng := rand.New(rand.NewPCG(o.seed, 3))
		warmup := total / 20
		cycles := max(1, int(float64(total-warmup)/float64(serveCycle)+0.5))
		cycle := (total - warmup) / time.Duration(cycles)
		blockA := time.Duration(float64(cycle) * serveShareA)
		var a openStats
		var rates []float64
		for i := 0; i < cycles; i++ {
			a.add(openLoop(rep, sys, gen, rng, blockA, warmup, nil, &l))
			rates = append(rates, closedLoop(rep, sys, gen, cycle-blockA, &l)...)
			warmup = 0
		}
		reportServe(rep, a, rates)
	}
	rep.attempted += l.submitted
	rep.failed += l.rejected + l.dropped + l.errs
	rep.checkErr(l.verify())
	rep.note("ledger: submitted %d = mediated %d + rejected %d + dropped %d + errors %d", l.submitted, l.mediated, l.rejected, l.dropped, l.errs)
}

// reportServe records phase B throughput, the median over serveWindow
// windows, and the exact phase A latency quantiles over every measured
// arrival.
func reportServe(rep *report, a openStats, rates []float64) {
	rep.endToEnd("throughput_qps", "1/s", median(rates), len(rates))
	rep.endToEnd("latency_p50_ms", "ms", quantile(a.latMS, 0.5), len(a.latMS))
	rep.alsoMeasured("latency_p99_ms", "ms", quantile(a.latMS, 0.99), len(a.latMS))
}

// traceServe splits the time into four: phase B untraced (the overhead
// baseline), phases A and B on a traced server, and the stage replay.
func traceServe(o options, rep *report, sys serveSystem, gen *queryGen, total time.Duration, l *ledger) {
	quarter := total / 4
	goc := startGoCounters()
	var base ledger
	baseRates := closedLoop(rep, sys, gen, quarter, &base)
	goc.report(rep, int(base.mediated))
	*l = base

	tr := newTracer()
	tsys := buildServe(o.seed, tr)
	tgen := newQueryGen(tsys.pop, o.seed, 1)
	tracedStart := time.Now()
	a := openLoop(rep, tsys, tgen, rand.New(rand.NewPCG(o.seed, 3)), quarter-quarter/5, quarter/5, tr, l)
	lookupsA := tsys.matcher.lookups
	rates := closedLoop(rep, tsys, tgen, quarter, l)
	tracedWall := time.Since(tracedStart)
	reportServe(rep, a, rates)
	rep.note("tracing overhead: throughput_qps traced %.1f vs untraced %.1f (%+.2f%%)",
		median(rates), median(baseRates), 100*(median(rates)/median(baseRates)-1))

	// The replay mediates one query at a time on its own population, so
	// its intention cost is the unbatched one.
	pop := sqlb.NewPopulation(serveConfig(), o.seed)
	rtr := newTracer()
	rp := newReplayer(pop, rtr, true)
	rgen := newQueryGen(pop, o.seed, 2)
	start := time.Now()
	for i := 0; time.Since(start) < quarter; i++ {
		now := float64(i) / serveRate
		if err := rp.mediate(now, rgen.next(now)); err != nil {
			rep.checkErr(err)
			break
		}
	}
	rp.stageMetrics(rep)

	tr.reportAllocator(rep, tracedWall)
	m := tsys.matcher
	lookup := tr.totals()[stLookup]
	rep.layer("matchmaking.lookup_us", "us", lookup.meanUS(), lookup.n)
	rep.layer("matchmaking.pq_mean", "count", ratio(float64(m.pqSum), float64(m.lookups)), m.lookups)
	rep.layer("mediator.batch_us", "us", ratio(a.busy.Seconds()*1e6, float64(a.batches)), a.batches)
	rep.layer("mediator.batch_size_mean", "count", ratio(float64(a.batchQueries), float64(a.batches)), a.batches)
	rep.layer("mediator.queries_per_class_batch", "count", ratio(float64(a.queries), float64(lookupsA)), lookupsA)
	rep.layer("mediator.busy_share", "share", ratio(a.busy.Seconds(), a.wall.Seconds()), a.batches)
	rep.layer("mediator.queue_wait_ms_p50", "ms", quantile(a.waitMS, 0.5), len(a.waitMS))
	rep.layer("gen.late_ms_max", "ms", float64(a.lateMax)/1e6, len(a.latMS))
	notOnPath(rep, "sim.us_per_query", "sim.engine_self_us_per_query", "sim.issued", "sim.completed",
		"sim.dropped", "sim.inflight_end", "timeline.rows", "timeline.us_per_row")
	tr.save(rep, o.spansDir, fmt.Sprintf("serve-10k-%d-server", o.seed))
	rtr.save(rep, o.spansDir, fmt.Sprintf("serve-10k-%d-replay", o.seed))
}
