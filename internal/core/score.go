// Package core implements the heart of SQLB (VLDB 2007, Section 5.3-5.4):
// the provider score of Definition 9, the adaptive consumer/provider
// balance ω of Equation 6, the provider ranking R⃗_q, and the query
// allocation principle of Algorithm 1.
//
// The score balances the consumer's intention to allocate its query to a
// provider against that provider's intention to perform it. The balance
// exponent ω adapts to the participants' observed (intention-based)
// satisfactions so that whichever side the mediator has satisfied less gets
// more weight — the fairness mechanism that distinguishes SQLB from the
// baselines.
package core

import (
	"math"
)

// DefaultEpsilon is ε of Definition 9 ("usually set to 1").
const DefaultEpsilon = 1.0

// Omega computes ω (Equation 6) from the consumer's and the provider's
// observed satisfaction:
//
//	ω = ((δs(c) − δs(p)) + 1) / 2
//
// Both satisfactions must be the intention-based ones the mediator can see
// (Section 5.3: the allocation module has no access to private
// preferences). ω → 1 gives all weight to the provider's intention (the
// consumer has been doing well), ω → 0 all weight to the consumer's.
func Omega(consumerSat, providerSat float64) float64 {
	return ((clamp01(consumerSat) - clamp01(providerSat)) + 1) / 2
}

// Score computes scr_q(p) (Definition 9) from the provider's intention pi,
// the consumer's intention ci, the balance ω, and ε > 0:
//
//	scr = pi^ω · ci^(1−ω)                       if pi > 0 ∧ ci > 0
//	scr = −((1−pi+ε)^ω · (1−ci+ε)^(1−ω))        otherwise
//
// A provider scores positively only when both sides want the interaction.
func Score(pi, ci, omega, epsilon float64) float64 {
	omega = clamp01(omega)
	if !(epsilon > 0) {
		epsilon = DefaultEpsilon
	}
	if pi > 0 && ci > 0 {
		return pow(pi, omega) * pow(ci, 1-omega)
	}
	return -(pow(1-pi+epsilon, omega) * pow(1-ci+epsilon, 1-omega))
}

// Ranked is one entry of the ranking vector R⃗_q: the index of the provider
// within Pq and its score.
type Ranked struct {
	Index int
	Score float64
}

// Rank scores every provider in Pq and returns R⃗_q, ordered best to worst
// (Section 5.3). pi and ci are the providers' and the consumer's expressed
// intentions, indexed alike; omegas carries the per-provider ω (Equation 6
// uses each provider's own observed satisfaction). Ties break on the lower
// index so rankings are deterministic. pi, ci and omegas must have equal
// length; entries beyond the shortest are ignored defensively.
func Rank(pi, ci, omegas []float64, epsilon float64) []Ranked {
	return RankTop(nil, len(pi), pi, ci, omegas, epsilon)
}

// RankTop returns only the n best entries of R⃗_q, best first, without
// materializing the full sort: scores are computed for every provider but
// the ordering work is delegated to SelectTopN's bounded heap, the win on
// the mediation hot path where q.n ≪ |Pq|. n ≥ |Pq| degrades to the full
// ranking (identical to Rank). Ties break on the lower index exactly as in
// Rank, so RankTop(n, …) is always a prefix of Rank(…). A non-finite score
// (NaN or ±Inf intentions) is ranked and reported as −Inf (see SortKey).
//
// Every intermediate — the score vector (Scratch.F2), the top-n heap
// (Scratch.I1), and the returned ranking (Scratch.R1) — is carved from s,
// making the whole score/rank/select pipeline allocation-free once the
// buffers are warm. The result is valid until the next call that uses R1;
// a nil s allocates fresh buffers instead.
func RankTop(s *Scratch, n int, pi, ci, omegas []float64, epsilon float64) []Ranked {
	total := len(pi)
	if len(ci) < total {
		total = len(ci)
	}
	if len(omegas) < total {
		total = len(omegas)
	}
	scores := s.F2(total)
	for i := 0; i < total; i++ {
		scores[i] = SortKey(Score(pi[i], ci[i], omegas[i], epsilon))
	}
	idx := SelectTopN(s, total, n, func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	})
	ranking := s.R1(len(idx))
	for i, j := range idx {
		ranking[i] = Ranked{Index: j, Score: scores[j]}
	}
	return ranking
}

// SortKey returns v as a higher-is-better sort key. A non-finite v (NaN,
// +Inf or −Inf) maps to −Inf, so the entry ranks after every finite one
// and ties on the index with the other non-finite entries; without it, a
// NaN makes "a > b" fail both ways and the comparison stops being a strict
// total order. Finite values pass through unchanged. Lower-is-better keys
// (loads, bids) are negated into this form.
func SortKey(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.Inf(-1)
	}
	return v
}

// Select implements the allocation step of Algorithm 1 (lines 9-10): the
// min(n, N) best-ranked providers get the query (All⃗oc[R⃗_q[i]] ← 1), the
// rest do not. It returns the selected Pq indexes in rank order, carved
// from s's second index buffer (Scratch.I2) and valid until the next call
// that uses I2; a nil s allocates a fresh slice.
func Select(s *Scratch, n int, ranking []Ranked) []int {
	if n < 1 {
		n = 1
	}
	take := n
	if take > len(ranking) {
		take = len(ranking)
	}
	selected := s.I2(take)
	for i := 0; i < take; i++ {
		selected[i] = ranking[i].Index
	}
	return selected
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	}
	return math.Pow(base, exp)
}
