package core

import (
	"math"
	"sort"
	"testing"

	"sqlb/internal/randx"
)

// oracleTopN is the naive reference: fully stable-sort all indexes under
// less and take the first n. SelectTopN's bounded heap must agree with it
// exactly, for any input.
func oracleTopN(total, n int, less func(a, b int) bool) []int {
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	if n < 0 {
		n = 0
	}
	if n > total {
		n = total
	}
	return idx[:n]
}

// valueLess orders by value descending with the lower-index tiebreak every
// production call site uses.
func valueLess(vals []float64) func(a, b int) bool {
	return func(a, b int) bool {
		if vals[a] != vals[b] {
			return vals[a] > vals[b]
		}
		return a < b
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectTopNAgainstOracle: across randomized sizes, scores quantized to
// force heavy ties, and the boundary n values of the issue (0, 1, total,
// total+5), the heap selection equals the full stable sort.
func TestSelectTopNAgainstOracle(t *testing.T) {
	rng := randx.New(7)
	for trial := 0; trial < 200; trial++ {
		total := rng.Pick(60)
		vals := make([]float64, total)
		for i := range vals {
			// Quantized to one decimal: with up to 60 elements over 21
			// possible values, ties are everywhere.
			vals[i] = math.Round(rng.Uniform(-1, 1)*10) / 10
		}
		ns := []int{0, 1, total / 2, total - 1, total, total + 5}
		for _, n := range ns {
			got := SelectTopN(nil, total, n, valueLess(vals))
			want := oracleTopN(total, n, valueLess(vals))
			if !equalInts(got, want) {
				t.Fatalf("trial %d: SelectTopN(%d, %d) = %v, oracle %v (vals %v)",
					trial, total, n, got, want, vals)
			}
		}
	}
}

// TestSelectTopNPermutationInvariance: permuting the input may only swap
// equal-valued elements (the documented index tiebreak); the multiset of
// selected values is invariant, and with all-distinct values the selected
// identities are too.
func TestSelectTopNPermutationInvariance(t *testing.T) {
	rng := randx.New(8)
	for trial := 0; trial < 100; trial++ {
		total := 1 + rng.Pick(50)
		n := 1 + rng.Pick(total)
		vals := make([]float64, total)
		for i := range vals {
			vals[i] = rng.Float64() // a.s. distinct
		}
		perm := rng.Perm(total)
		pvals := make([]float64, total)
		for i, p := range perm {
			pvals[i] = vals[p] // position i now holds original element perm[i]
		}
		base := SelectTopN(nil, total, n, valueLess(vals))
		permuted := SelectTopN(nil, total, n, valueLess(pvals))
		// Map the permuted selection back to original identities.
		back := make([]int, len(permuted))
		for i, idx := range permuted {
			back[i] = perm[idx]
		}
		sort.Ints(back)
		sorted := append([]int(nil), base...)
		sort.Ints(sorted)
		if !equalInts(back, sorted) {
			t.Fatalf("trial %d: permuted selection %v != base %v", trial, back, sorted)
		}
	}
}

// TestSelectTopNTiesPickLowestIndexes: when every element compares equal,
// the selection must be exactly the n lowest indexes, in order.
func TestSelectTopNTiesPickLowestIndexes(t *testing.T) {
	vals := make([]float64, 20)
	got := SelectTopN(nil, 20, 5, valueLess(vals))
	if !equalInts(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("all-ties selection = %v, want [0 1 2 3 4]", got)
	}
}

// TestRankTopIsPrefixOfRank: RankTop(n, …) must equal the first n entries
// of the full ranking for every n, including the degenerate ones, both
// allocating (nil scratch) and through one scratch reused across trials
// of varying |Pq| (so its buffers both grow and shrink); Select must pick
// the same prefix either way.
func TestRankTopIsPrefixOfRank(t *testing.T) {
	rng := randx.New(9)
	var s Scratch
	for trial := 0; trial < 50; trial++ {
		total := 1 + rng.Pick(40)
		pi := make([]float64, total)
		ci := make([]float64, total)
		om := make([]float64, total)
		for i := range pi {
			// Quantized to force score ties through Definition 9.
			pi[i] = math.Round(rng.Uniform(-1, 1)*4) / 4
			ci[i] = math.Round(rng.Uniform(-1, 1)*4) / 4
			om[i] = math.Round(rng.Float64()*4) / 4
		}
		full := Rank(pi, ci, om, 1)
		for _, n := range []int{0, 1, total / 2, total, total + 5} {
			for _, sc := range []*Scratch{nil, &s} {
				got := RankTop(sc, n, pi, ci, om, 1)
				want := n
				if want > total {
					want = total
				}
				if len(got) != want {
					t.Fatalf("RankTop(%d) returned %d entries, want %d", n, len(got), want)
				}
				for i := range got {
					if got[i] != full[i] {
						t.Fatalf("RankTop(%d)[%d] = %+v, full ranking has %+v", n, i, got[i], full[i])
					}
				}
				sel := Select(sc, n, got)
				if wantSel := Select(nil, n, full[:want]); !equalInts(sel, wantSel) {
					t.Fatalf("Select(%d) = %v, want %v", n, sel, wantSel)
				}
			}
		}
	}
}

// TestSelectTopNEmpty covers the zero-provider and zero-n edges.
func TestSelectTopNEmpty(t *testing.T) {
	if got := SelectTopN(nil, 0, 3, func(a, b int) bool { return a < b }); len(got) != 0 {
		t.Errorf("empty input selected %v", got)
	}
	if got := SelectTopN(nil, 5, 0, func(a, b int) bool { return a < b }); len(got) != 0 {
		t.Errorf("n=0 selected %v", got)
	}
	if got := SelectTopN(nil, 5, -2, func(a, b int) bool { return a < b }); len(got) != 0 {
		t.Errorf("negative n selected %v", got)
	}
}
