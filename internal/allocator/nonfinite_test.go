package allocator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sqlb/internal/core"
	"sqlb/internal/randx"
)

// nonFinite are the values injected into the public inputs of a request.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// wantKey is the ranking contract for one score: a finite score ranks as
// itself, a non-finite one as −Inf (after every finite score).
func wantKey(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.Inf(-1)
	}
	return v
}

// nonFiniteRequest is randomRequest with NaN/±Inf injected into about a
// quarter of the PI, CI and ProviderSat entries.
func nonFiniteRequest(t *testing.T, seed uint64) *Request {
	rng := randx.New(seed)
	providers := 1 + rng.Pick(40)
	req := randomRequest(t, rng, providers, 1+rng.Pick(providers+3))
	for _, vec := range [][]float64{req.PI, req.CI, req.ProviderSat} {
		for i := range vec {
			if rng.Bool(0.25) {
				vec[i] = nonFinite[rng.Pick(len(nonFinite))]
			}
		}
	}
	return req
}

// checkRanking verifies Rank and RankTop over the request's intentions:
// Rank is a permutation ordered by key with index tie-breaks, every key is
// wantKey(Score(…)), and RankTop(n) — with or without a scratch — is the
// n-prefix of Rank.
func checkRanking(req *Request) error {
	om := sqlbOmegas(req, nil)
	full := core.Rank(req.PI, req.CI, om, 0)
	if len(full) != len(req.Pq) {
		return fmt.Errorf("Rank returned %d entries for %d providers", len(full), len(req.Pq))
	}
	seen := make([]bool, len(full))
	for i, r := range full {
		if r.Index < 0 || r.Index >= len(seen) || seen[r.Index] {
			return fmt.Errorf("Rank is not a permutation: %v", full)
		}
		seen[r.Index] = true
		want := wantKey(core.Score(req.PI[r.Index], req.CI[r.Index], om[r.Index], 0))
		if r.Score != want {
			return fmt.Errorf("Rank[%d] = %+v, want score %v", i, r, want)
		}
		if i > 0 {
			prev := full[i-1]
			if !(prev.Score > r.Score || prev.Score == r.Score && prev.Index < r.Index) {
				return fmt.Errorf("Rank out of order at %d: %+v before %+v", i, prev, r)
			}
		}
	}
	var s core.Scratch
	for _, n := range []int{0, 1, req.N(), len(full)} {
		for _, sc := range []*core.Scratch{nil, &s} {
			top := core.RankTop(sc, n, req.PI, req.CI, om, 0)
			if len(top) != n {
				return fmt.Errorf("RankTop(%d) returned %d entries", n, len(top))
			}
			for i := range top {
				if top[i] != full[i] {
					return fmt.Errorf("RankTop(%d)[%d] = %+v, Rank has %+v", n, i, top[i], full[i])
				}
			}
		}
	}
	return nil
}

// checkAllocators verifies every strategy on the request: exactly N
// distinct in-range indexes, the same selection with and without a
// scratch, and, for the score-ranked strategies, the prefix of the
// contract ranking.
func checkAllocators(req *Request, seed uint64) error {
	fixed := 0.25
	strategies := []func() Allocator{
		func() Allocator { return NewSQLB() },
		func() Allocator { return NewSQLBFixedOmega(fixed) },
		func() Allocator { return NewCapacityBased() },
		func() Allocator { return NewMariposaLike() },
		func() Allocator { return NewSQLBEconomic() },
		func() Allocator { return NewKnBest() },
		func() Allocator { return NewRandom(seed) },
	}
	for _, mk := range strategies {
		req.Scratch = nil
		plain := append([]int(nil), mk().Allocate(req)...)
		req.Scratch = &core.Scratch{}
		scratched := mk().Allocate(req)
		req.Scratch = nil
		name := mk().Name()
		if len(plain) != req.N() {
			return fmt.Errorf("%s selected %d providers, want %d", name, len(plain), req.N())
		}
		seen := map[int]bool{}
		for i, idx := range plain {
			if idx < 0 || idx >= len(req.Pq) || seen[idx] {
				return fmt.Errorf("%s selection %v is not distinct in-range indexes", name, plain)
			}
			seen[idx] = true
			if scratched[i] != idx {
				return fmt.Errorf("%s selects %v without a scratch, %v with one", name, plain, scratched)
			}
		}
	}
	// SQLB selects the prefix of the contract ranking.
	for _, f := range []*float64{nil, &fixed} {
		var a Allocator = NewSQLB()
		if f != nil {
			a = NewSQLBFixedOmega(*f)
		}
		got := a.Allocate(req)
		full := core.Rank(req.PI, req.CI, sqlbOmegas(req, f), 0)
		for i, idx := range got {
			if idx != full[i].Index {
				return fmt.Errorf("%s selected %v, ranking starts %v", a.Name(), got, full[:len(got)])
			}
		}
	}
	// SQLB-econ ranks a non-finite value after every finite one.
	finite := 0
	for i := range req.Pq {
		om := core.Omega(req.ConsumerSat, req.ProviderSat[i])
		if wantKey(om*req.PI[i]+(1-om)*req.CI[i]) > math.Inf(-1) {
			finite++
		}
	}
	for rank, idx := range NewSQLBEconomic().Allocate(req) {
		om := core.Omega(req.ConsumerSat, req.ProviderSat[idx])
		if wantKey(om*req.PI[idx]+(1-om)*req.CI[idx]) == math.Inf(-1) && rank < finite {
			return fmt.Errorf("SQLB-econ ranked non-finite provider %d at %d before %d finite ones", idx, rank, finite)
		}
	}
	return nil
}

// TestNonFiniteInputsRankLast is the property behind the non-finite
// ranking contract: with NaN/±Inf injected into PI, CI and ProviderSat,
// Definition 9 scores that come out non-finite rank after every finite one,
// ties break on the index, RankTop stays a prefix of Rank, and every
// allocator still returns min(q.n, |Pq|) distinct providers.
func TestNonFiniteInputsRankLast(t *testing.T) {
	var failure error
	prop := func(seed uint64) bool {
		req := nonFiniteRequest(t, seed)
		if failure = checkRanking(req); failure != nil {
			return false
		}
		failure = checkAllocators(req, seed)
		return failure == nil
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("%v: %v", err, failure)
	}
}
