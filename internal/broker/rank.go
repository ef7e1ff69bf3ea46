package broker

import (
	"uptimebroker/internal/optimize"
)

// ranker maps between assignments and their positions in the paper's
// presentation order — ascending number of clustered components,
// lexicographic within a level — combinatorially, in O(n) each way,
// from two DP tables over the problem shape. Option numbers are
// positions plus one, so any card of any space can be named, and
// built, without enumerating the space.
type ranker struct {
	// ways[i][r] is the number of assignments of components i..n-1
	// with exactly r clustered (non-baseline) components.
	ways [][]int

	// levelOffset[l] is the number of assignments on levels < l: the
	// presentation position where level l starts.
	levelOffset []int
}

func newRanker(p *optimize.Problem) *ranker {
	n := len(p.Components)
	ways := make([][]int, n+1)
	for i := range ways {
		ways[i] = make([]int, n+1)
	}
	ways[n][0] = 1
	for i := n - 1; i >= 0; i-- {
		k := len(p.Components[i].Variants)
		for r := 0; r <= n-i; r++ {
			w := ways[i+1][r]
			if r > 0 {
				w += (k - 1) * ways[i+1][r-1]
			}
			ways[i][r] = w
		}
	}
	levelOffset := make([]int, n+2)
	for l := 0; l <= n; l++ {
		levelOffset[l+1] = levelOffset[l] + ways[0][l]
	}
	return &ranker{ways: ways, levelOffset: levelOffset}
}

// position returns the 0-based presentation index of a: the start of
// its level plus the number of same-level assignments that order
// lexicographically before it (counted digit by digit — at each
// clustered digit, the completions reachable through the smaller
// choices).
func (r *ranker) position(a optimize.Assignment) int {
	n := len(a)
	level := haCount(a)
	pos := r.levelOffset[level]
	remaining := level
	for i, v := range a {
		if v == 0 {
			continue
		}
		// Assignments that keep digit i at the baseline must place all
		// `remaining` clustered choices in the suffix; assignments that
		// cluster digit i with a smaller variant place remaining-1.
		if remaining <= n-(i+1) {
			pos += r.ways[i+1][remaining]
		}
		pos += (v - 1) * r.ways[i+1][remaining-1]
		remaining--
	}
	return pos
}

// unrank inverts position: the assignment at 0-based presentation
// index pos, which must lie in [0, k^n). It finds pos's level, then
// fixes the digits left to right, at each one skipping the blocks of
// completions that order before it — the same counts position adds.
func (r *ranker) unrank(pos int) optimize.Assignment {
	n := len(r.ways) - 1
	level := 0
	for r.levelOffset[level+1] <= pos {
		level++
	}
	pos -= r.levelOffset[level]
	a := make(optimize.Assignment, n)
	remaining := level
	for i := 0; i < n && remaining > 0; i++ {
		// Keeping digit i at the baseline leaves every clustered choice
		// to the suffix (ways is zero when the suffix is too short).
		base := r.ways[i+1][remaining]
		if pos < base {
			continue
		}
		pos -= base
		block := r.ways[i+1][remaining-1]
		a[i] = 1 + pos/block
		pos %= block
		remaining--
	}
	return a
}
