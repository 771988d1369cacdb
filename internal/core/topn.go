package core

// SelectTopN returns the indexes of the n best elements out of [0, total),
// best first, where less reports whether element a ranks strictly better
// than element b. less must be a strict total order — callers embed an
// index tiebreak (lower index wins) and compare keys passed through
// SortKey — so that the result is deterministic and unique regardless of
// evaluation order.
//
// The allocation hot path calls this once per mediation with n = q.n ≪
// |Pq|, so instead of sorting all total elements it keeps a bounded
// max-heap of the n best seen so far: O(total·log n) comparisons rather
// than O(total·log total). When n ≥ total it degrades to a plain full
// sort, which is also the reference behaviour the property tests compare
// against.
//
// The heap — and therefore the result slice — is carved from s's first
// index buffer (Scratch.I1) and is valid until the next call that uses
// I1; a nil s allocates a fresh slice.
func SelectTopN(s *Scratch, total, n int, less func(a, b int) bool) []int {
	if n < 0 {
		n = 0
	}
	if n > total {
		n = total
	}
	if n == 0 {
		return s.I1(0)
	}
	if n == total {
		idx := s.I1(total)
		for i := range idx {
			idx[i] = i
		}
		sortIdx(idx, less)
		return idx
	}

	// h is a max-heap under less: h[0] is the worst of the n best so far,
	// the element the next candidate has to beat.
	h := s.I1(n)
	for i := range h {
		h[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
	for i := n; i < total; i++ {
		if less(i, h[0]) {
			h[0] = i
			siftDown(h, 0, less)
		}
	}
	sortIdx(h, less)
	return h
}

// siftDown restores the max-heap property (worst element at the root,
// "worse" meaning less reports the other way) for the subtree rooted at i.
func siftDown(h []int, i int, less func(a, b int) bool) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && less(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && less(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
