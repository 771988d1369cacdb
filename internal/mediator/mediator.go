// Package mediator implements the mediation layer of Figure 1 and
// Algorithm 1: matchmaking (finding Pq), obtaining the consumer's and the
// providers' intentions (synchronously for the simulator, or concurrently
// with a timeout for live deployments), driving the pluggable allocation
// strategy, and notifying every provider in Pq of the mediation result so
// that the satisfaction windows of Section 3 stay current.
package mediator

import (
	"errors"
	"fmt"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/intention"
	"sqlb/internal/model"
)

// ErrNoProviders reports a query for which matchmaking found no provider
// (Pq = ∅). The paper only considers feasible queries; the simulator
// counts such a query as dropped — match with errors.Is, since Allocate
// wraps it with the query ID. Under heterogeneous capabilities this is a
// normal outcome (a class every specialist skipped), not a bug.
var ErrNoProviders = errors.New("mediator: no provider can treat the query")

// Matchmaker finds the set Pq of providers able to treat a query (line 1
// of Algorithm 1). The paper assumes a sound and complete matchmaking
// procedure (Section 2, refs [11,14]) and, in the experiments, that every
// provider can perform every query. Implementations must return Pq in
// ascending provider-ID order so allocation tie-breaks — and therefore
// whole simulations — do not depend on which matchmaker produced the set.
type Matchmaker interface {
	// Match returns the alive providers able to treat q, in ascending ID
	// order.
	Match(q *model.Query, pop *model.Population) []*model.Provider
}

// BufferedMatchmaker is the allocation-free variant of Matchmaker: MatchInto
// appends the matchmade set to buf (reusing its capacity) instead of
// allocating a fresh slice per query. The mediator's fast path probes for it
// and lends its own scratch buffer; the ordering contract is the same as
// Match's. Matchmakers that already answer from internal storage without
// allocating (the inverted index) need not implement it.
type BufferedMatchmaker interface {
	Matchmaker
	// MatchInto appends the alive providers able to treat q to buf and
	// returns the extended slice, in ascending provider-ID order.
	MatchInto(buf []*model.Provider, q *model.Query, pop *model.Population) []*model.Provider
}

// AllProviders is the experimental-setup matchmaker: every provider still
// registered to the mediator can treat every query.
type AllProviders struct{}

// Match implements Matchmaker.
func (AllProviders) Match(_ *model.Query, pop *model.Population) []*model.Provider {
	return pop.AliveProviders()
}

// MatchInto implements BufferedMatchmaker.
func (AllProviders) MatchInto(buf []*model.Provider, _ *model.Query, pop *model.Population) []*model.Provider {
	for _, p := range pop.Providers {
		if p.Alive {
			buf = append(buf, p)
		}
	}
	return buf
}

// CapabilityMatcher matches on a per-provider capability predicate; used by
// examples where providers serve only some query classes.
type CapabilityMatcher struct {
	// Capable reports whether the provider can treat queries of the class.
	Capable func(p *model.Provider, queryClass int) bool
}

// Match implements Matchmaker.
func (m CapabilityMatcher) Match(q *model.Query, pop *model.Population) []*model.Provider {
	return m.MatchInto(make([]*model.Provider, 0, len(pop.Providers)), q, pop)
}

// MatchInto implements BufferedMatchmaker.
func (m CapabilityMatcher) MatchInto(buf []*model.Provider, q *model.Query, pop *model.Population) []*model.Provider {
	for _, p := range pop.Providers {
		if p.Alive && (m.Capable == nil || m.Capable(p, q.Class)) {
			buf = append(buf, p)
		}
	}
	return buf
}

// ByCapability returns the naive sound-and-complete matchmaker over the
// providers' advertised capability sets (model.Provider.CanServe): a full
// O(|P|) population scan per query. It is the reference the indexed
// matchmaker (internal/matchmaking) is property-tested against, and the
// baseline its benchmarks beat.
func ByCapability() CapabilityMatcher {
	return CapabilityMatcher{Capable: func(p *model.Provider, queryClass int) bool {
		return p.CanServe(queryClass)
	}}
}

// Allocation is the outcome of mediating one query.
type Allocation struct {
	// Query is the mediated query.
	Query *model.Query
	// Pq is the matchmade provider set. When obtained from Mediator.
	// Allocate it aliases mediator scratch or the index's internal posting
	// list (both kept allocation-free for the simulator's hot path) and is
	// only valid until the next mediation or provider churn event — as is
	// the whole Allocation on that path; callers that retain providers
	// past that point must copy (SelectedProviders does). Allocations
	// returned by Server.Mediate carry their own copies and are safe to
	// retain; Server.MediateBatch results stay valid until the next batch.
	Pq []*model.Provider
	// CI and PI are the expressed intentions, indexed like Pq.
	CI []float64
	PI []float64
	// Selected are the indexes into Pq that got the query, best first
	// (All⃗oc[p] = 1 for these, 0 for the rest).
	Selected []int
	// CollectErrors and CollectTimeouts count the intention answers that
	// fell back to the collector's Default on the concurrent path (errored
	// participants and answers outstanding at the timeout). Zero on the
	// in-process synchronous path, where every intention is computed
	// locally.
	CollectErrors   int
	CollectTimeouts int
}

// Degraded reports whether any intention behind this allocation fell back
// to the collector's Default — the mediation committed on partial
// information.
func (a *Allocation) Degraded() bool { return a.CollectErrors > 0 || a.CollectTimeouts > 0 }

// SelectedProviders returns the providers that got the query, best first.
func (a *Allocation) SelectedProviders() []*model.Provider {
	out := make([]*model.Provider, len(a.Selected))
	for i, idx := range a.Selected {
		out[i] = a.Pq[idx]
	}
	return out
}

// Mediator wires a matchmaker and an allocation strategy.
type Mediator struct {
	// Strategy is the query-allocation method under test.
	Strategy allocator.Allocator
	// Match is the matchmaking procedure; nil means AllProviders.
	Match Matchmaker

	// scratch holds the mediator's reusable per-mediation buffers. A
	// mediator serializes its mediations (the engine's event loop, the
	// server's mu), so one set suffices.
	scratch medScratch
}

// medScratch is the reusable working memory of one mediator: the intention,
// satisfaction, and matchmade vectors of the current mediation, the
// epoch-stamped selected-set marks, the strategy's buffer pool, and the
// request/allocation shells handed out by the fast path. Everything here is
// sized once at the population's high-water mark and then recycled, which
// is what takes the steady-state mediation to zero heap allocations.
type medScratch struct {
	strat    core.Scratch // lent to the strategy via Request.Scratch
	pq       []*model.Provider
	ci       []float64
	pi       []float64
	provSat  []float64
	selStamp []uint64 // selStamp[i] == epoch ⇔ Pq[i] selected this mediation
	epoch    uint64
	req      allocator.Request
	alloc    Allocation
}

// growFloats returns buf resized to n, reallocating only on capacity growth.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// New returns a mediator using the given strategy and the all-providers
// matchmaker.
func New(strategy allocator.Allocator) *Mediator {
	return &Mediator{Strategy: strategy, Match: AllProviders{}}
}

// Allocate mediates one query at the given time: matchmaking, intention
// gathering (lines 2-5 of Algorithm 1, computed synchronously here — see
// Collector for the concurrent fork/join variant), allocation (lines 6-10),
// and result notification (recording into every participant's satisfaction
// windows). The strategy sees only public information: expressed intentions
// and intention-based satisfactions.
//
// This is the simulator's hot path and allocates nothing in steady state:
// the returned Allocation and every slice it carries live in the mediator's
// scratch and are valid only until the next mediation on this mediator (or
// provider churn, for Pq). Callers that retain anything past that point
// must copy (SelectedProviders does); Server.Mediate returns durable
// allocations instead.
func (m *Mediator) Allocate(now float64, q *model.Query, pop *model.Population) (*Allocation, error) {
	match := m.Match
	if match == nil {
		match = AllProviders{}
	}
	var pq []*model.Provider
	if bm, ok := match.(BufferedMatchmaker); ok {
		m.scratch.pq = bm.MatchInto(m.scratch.pq[:0], q, pop)
		pq = m.scratch.pq
	} else {
		pq = match.Match(q, pop)
	}
	if len(pq) == 0 {
		return nil, fmt.Errorf("%w (query %d)", ErrNoProviders, q.ID)
	}
	sc := &m.scratch
	sc.ci = growFloats(sc.ci, len(pq))
	sc.pi = growFloats(sc.pi, len(pq))
	intentionsInto(now, q, pq, sc.ci, sc.pi)
	if err := m.allocateInto(&sc.alloc, now, q, pq, sc.ci, sc.pi); err != nil {
		return nil, err
	}
	return &sc.alloc, nil
}

// AllocateCollected performs the allocation commit of Algorithm 1 (lines
// 6-10) once the intention vectors have been gathered — by Intentions for
// the in-process fast path or by a Collector for the concurrent/live path
// (see Server). It scores, ranks, selects, and notifies every provider in
// Pq of the mediation result. The returned Allocation owns its Selected set
// and is safe to retain (Pq/CI/PI alias the caller's slices).
func (m *Mediator) AllocateCollected(now float64, q *model.Query, pq []*model.Provider, ci, pi []float64) (*Allocation, error) {
	alloc := &Allocation{}
	if err := m.allocateInto(alloc, now, q, pq, ci, pi); err != nil {
		return nil, err
	}
	alloc.Selected = append([]int(nil), alloc.Selected...)
	return alloc, nil
}

// allocateInto is the shared allocation commit: it scores, ranks, selects,
// records the result, and fills out in place. Out's Selected aliases the
// strategy's scratch selection and is valid only until the next mediation
// on this mediator — callers that let the allocation escape copy it
// (AllocateCollected) or arena it (Server.MediateBatch).
func (m *Mediator) allocateInto(out *Allocation, now float64, q *model.Query, pq []*model.Provider, ci, pi []float64) error {
	if m.Strategy == nil {
		return errors.New("mediator: no allocation strategy configured")
	}
	if len(pq) == 0 {
		return fmt.Errorf("%w (query %d)", ErrNoProviders, q.ID)
	}
	if len(ci) != len(pq) || len(pi) != len(pq) {
		return fmt.Errorf("mediator: intention vectors sized %d/%d for %d providers", len(ci), len(pi), len(pq))
	}
	sc := &m.scratch
	sc.provSat = growFloats(sc.provSat, len(pq))
	provSat := sc.provSat
	for i, p := range pq {
		provSat[i] = p.Public.Satisfaction()
	}
	sc.req = allocator.Request{
		Query:       q,
		Pq:          pq,
		CI:          ci,
		PI:          pi,
		ConsumerSat: q.Consumer.Tracker.Satisfaction(),
		ProviderSat: provSat,
		Now:         now,
		Scratch:     &sc.strat,
	}
	selected := m.Strategy.Allocate(&sc.req)

	m.record(q, pq, ci, pi, selected)
	*out = Allocation{Query: q, Pq: pq, CI: ci, PI: pi, Selected: selected}
	return nil
}

// Intentions computes the consumer and provider intentions for a query
// over Pq, per Definitions 7 and 8. This is the synchronous fast path used
// by the simulator; the formulas are evaluated in-process because every
// participant is local.
//
// The vectors carry the *raw* definition values, which extend below -1
// (Figure 2's surface reaches -2.5). Definition 9's negative branch needs
// that depth: an overutilized provider the consumer loves must eventually
// rank below a willing provider the consumer is lukewarm about, or load
// would keep piling onto favorites until they flee by overutilization.
// The satisfaction windows clamp to [-1,1] at record time (Section 2's
// expressed range), so the δ characteristics stay in [0,1].
func Intentions(now float64, q *model.Query, pq []*model.Provider) (ci, pi []float64) {
	ci = make([]float64, len(pq))
	pi = make([]float64, len(pq))
	intentionsInto(now, q, pq, ci, pi)
	return ci, pi
}

// intentionsInto fills the intention vectors ci and pi, indexed like pq.
func intentionsInto(now float64, q *model.Query, pq []*model.Provider, ci, pi []float64) {
	c := q.Consumer
	for i, p := range pq {
		ci[i] = intention.Consumer(c.Preference(p, q.Class), p.Reputation, c.Upsilon, c.Epsilon)
		pi[i] = intention.Provider(p.Preference(q.Class), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
	}
}

// record performs the mediation-result notification: the consumer logs the
// allocation against its shown intentions (Equations 1-2) and every
// provider in Pq — selected or not — logs the proposal in both its public
// (intention-fed) and private (preference-fed) windows.
//
// The selected set is marked with an epoch stamp instead of a per-call map:
// selStamp[i] == epoch means Pq[i] was selected this mediation, and bumping
// the epoch invalidates every stale mark at once. The epoch is a uint64 and
// never reused, so a fresh (zeroed) stamp buffer can never read as
// selected.
func (m *Mediator) record(q *model.Query, pq []*model.Provider, ci, pi []float64, selected []int) {
	q.Consumer.Tracker.RecordAllocation(ci, selected, q.N)
	sc := &m.scratch
	if cap(sc.selStamp) < len(pq) {
		sc.selStamp = make([]uint64, len(pq))
	}
	sc.selStamp = sc.selStamp[:cap(sc.selStamp)]
	sc.epoch++
	for _, idx := range selected {
		if idx >= 0 && idx < len(pq) {
			sc.selStamp[idx] = sc.epoch
		}
	}
	stamp, epoch := sc.selStamp, sc.epoch
	for i, p := range pq {
		performed := stamp[i] == epoch
		p.Public.Record(pi[i], performed)
		p.Private.Record(p.Preference(q.Class), performed)
	}
}
