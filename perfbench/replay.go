package main

import (
	"fmt"
	"math/rand/v2"

	"sqlb"
)

// queryGen mints the benchmark's queries from its own seed: a uniformly
// chosen consumer, a uniformly chosen class, the configured q.n.
type queryGen struct {
	rng    *rand.Rand
	pop    *sqlb.Population
	nextID uint64
}

func newQueryGen(pop *sqlb.Population, seed, stream uint64) *queryGen {
	return &queryGen{rng: rand.New(rand.NewPCG(seed, stream)), pop: pop}
}

func (g *queryGen) next(now float64) *sqlb.Query {
	g.nextID++
	class := g.rng.IntN(len(g.pop.Classes))
	n := g.pop.Config.QueryN
	if n < 1 {
		n = 1
	}
	return &sqlb.Query{
		ID:       g.nextID,
		Consumer: g.pop.Consumers[g.rng.IntN(len(g.pop.Consumers))],
		Class:    class,
		Units:    g.pop.Classes[class].Units,
		N:        n,
		IssuedAt: now,
	}
}

// checkSelection verifies one mediation outcome: min(q.N, |Pq|) distinct,
// in-range selections of alive providers that advertise the query's class.
func checkSelection(q *sqlb.Query, pq []*sqlb.Provider, selected []int) error {
	want := q.N
	if want > len(pq) {
		want = len(pq)
	}
	if len(selected) != want {
		return fmt.Errorf("query %d: %d providers selected, want min(n=%d, |Pq|=%d)", q.ID, len(selected), q.N, len(pq))
	}
	for i, idx := range selected {
		if idx < 0 || idx >= len(pq) {
			return fmt.Errorf("query %d: selection %d out of range [0,%d)", q.ID, idx, len(pq))
		}
		for _, prev := range selected[:i] {
			if prev == idx {
				return fmt.Errorf("query %d: provider index %d selected twice", q.ID, idx)
			}
		}
		if p := pq[idx]; !p.Alive || !p.CanServe(q.Class) {
			return fmt.Errorf("query %d: provider %d cannot serve class %d", q.ID, p.ID, q.Class)
		}
	}
	return nil
}

// replayer drives queries one at a time through the public entry point of
// each Algorithm 1 stage — MatchIndex.Lookup, ConsumerIntention and
// ProviderIntention, Mediator.AllocateCollected with a decorated strategy —
// so the traced run can time the stages the engine and the server run
// internally.
type replayer struct {
	index *sqlb.MatchIndex
	med   *sqlb.Mediator
	tr    *tracer
	// apply enqueues each query on its selected providers, as the engine
	// and the serving path do, so Definition 8's load term stays live.
	apply  bool
	ci, pi []float64
	pqSum  int
}

func newReplayer(pop *sqlb.Population, tr *tracer, apply bool) *replayer {
	med := sqlb.NewMediator(tracedAllocator{inner: sqlb.NewSQLB(), tr: tr})
	return &replayer{index: sqlb.BuildMatchIndex(pop), med: med, tr: tr, apply: apply}
}

func (r *replayer) mediate(now float64, q *sqlb.Query) error {
	tr := r.tr
	root := tr.begin(stQuery, q.ID)
	s := tr.begin(stLookup, q.ID)
	pq := r.index.Lookup(q.Class)
	tr.end(s)
	r.pqSum += len(pq)

	s = tr.begin(stIntention, q.ID)
	if cap(r.ci) < len(pq) {
		r.ci = make([]float64, len(pq))
		r.pi = make([]float64, len(pq))
	}
	ci, pi := r.ci[:len(pq)], r.pi[:len(pq)]
	c := q.Consumer
	for i, p := range pq {
		ci[i] = sqlb.ConsumerIntention(c.Preference(p, q.Class), p.Reputation, c.Upsilon, c.Epsilon)
		pi[i] = sqlb.ProviderIntention(p.Preference(q.Class), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
	}
	tr.end(s)

	s = tr.begin(stCommit, q.ID)
	alloc, err := r.med.AllocateCollected(now, q, pq, ci, pi)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := checkSelection(q, pq, alloc.Selected); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if r.apply {
		for _, idx := range alloc.Selected {
			pq[idx].Assign(now, q.Units)
		}
	}
	return nil
}

// stageMetrics reports the replayed stage costs (replay spans only: the
// allocator spans of the traced workload itself are reported separately).
func (r *replayer) stageMetrics(rep *report) (lookupUS, intentionUS, notifyUS, allocUS float64) {
	tot := r.tr.totals()
	n := float64(tot[stQuery].n)
	lookupUS = ratio(tot[stLookup].total.Seconds()*1e6, n)
	intentionUS = ratio(tot[stIntention].total.Seconds()*1e6, n)
	notifyUS = ratio(tot[stCommit].self.Seconds()*1e6, n)
	allocUS = ratio((tot[stCommit].total-tot[stCommit].self).Seconds()*1e6, n)
	rep.layer("matchmaking.lookup_us", "us", lookupUS, int(n))
	rep.layer("matchmaking.pq_mean", "count", ratio(float64(r.pqSum), n), int(n))
	rep.layer("intention.us_per_query", "us", intentionUS, int(n))
	rep.layer("intention.ns_per_provider", "ns", ratio(tot[stIntention].total.Seconds()*1e9, float64(r.pqSum)), r.pqSum)
	rep.layer("mediator.notify_us_per_query", "us", notifyUS, int(n))
	return lookupUS, intentionUS, notifyUS, allocUS
}
