package optimize

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"unsafe"

	"uptimebroker/internal/cost"
)

// Fold is the SLA-free part of a presentation-order frontier run over
// one compiled problem: the kept states of the last filtered level with
// the back-pointers behind them, the share of the space the level
// filters accounted for, and the leaves on the (HA cost, uptime) front.
// The DP's filter reads only HA costs and the availability fold, and a
// term enters only when a leaf is priced, so one Fold answers every
// SLA and penalty: SolvePresentation prices each of its leaves and
// ParetoContext prices its front. A Fold is immutable once built and
// safe to share.
type Fold struct {
	// last holds the states kept after folding components 0..n-2, in
	// lexicographic prefix order.
	last []frontierState

	// back[i] holds the back-pointers of the states kept after folding
	// component i.
	back [][]frontierLink

	// dropped counts the candidates below the states the level
	// filters dropped: the progress the fold accounts for.
	dropped int64

	// front holds the leaves on the (HA cost, uptime) front, by
	// ascending HA cost.
	front []frontierLeaf
}

// Bytes estimates the fold's resident size, for cache byte budgets.
func (f *Fold) Bytes() int64 {
	n := int64(unsafe.Sizeof(*f))
	n += int64(cap(f.last)) * int64(unsafe.Sizeof(frontierState{}))
	n += int64(cap(f.front)) * int64(unsafe.Sizeof(frontierLeaf{}))
	for _, links := range f.back {
		n += int64(unsafe.Sizeof(links)) + int64(cap(links))*int64(unsafe.Sizeof(frontierLink{}))
	}
	return n
}

// assignment rebuilds the full assignment ending in variant v folded
// onto state si of the last filtered level.
func (f *Fold) assignment(si, v int) Assignment {
	n := len(f.back) + 1
	a := make(Assignment, n)
	a[n-1] = v
	for i := n - 2; i >= 0; i-- {
		l := f.back[i][si]
		a[i] = int(l.v)
		si = int(l.parent)
	}
	return a
}

// candidate prices a leaf under sla.
func (f *Fold) candidate(l frontierLeaf, sla cost.SLA) Candidate {
	return Candidate{Assignment: f.assignment(l.si, l.v), Uptime: l.uptime, TCO: cost.Compute(l.cost, sla, l.uptime)}
}

// FoldCache memoizes folds across calls; see WithFoldCache. Fold
// returns the fold stored under key, or runs build and stores what it
// returns, collapsing concurrent builds of one key into one. A failed
// build is never stored. The context build runs on may carry the
// values of ctx (a progress hook), but must not end with ctx while
// other calls wait on the same build.
type FoldCache interface {
	Fold(ctx context.Context, key string, build func(context.Context) (*Fold, error)) (*Fold, error)
}

// foldCacheKey carries the fold cache in a context.
type foldCacheKey struct{}

// WithFoldCache attaches a fold cache to the context. An unbudgeted
// frontier SolvePresentation and ParetoContext then look their fold
// up by its content address, build it on a miss, and price it under
// their own term, with answers and statistics identical to a run that
// folds for itself. Budgeted runs, the other strategies and the
// lexicographic Solve neither read nor write it. A nil fc detaches.
func WithFoldCache(ctx context.Context, fc FoldCache) context.Context {
	return context.WithValue(ctx, foldCacheKey{}, fc)
}

// foldCacheFrom extracts the fold cache, or nil.
func foldCacheFrom(ctx context.Context) FoldCache {
	if ctx == nil {
		return nil
	}
	fc, _ := ctx.Value(foldCacheKey{}).(FoldCache)
	return fc
}

// foldKey is the content address of the presentation-order fold over
// e: a SHA-256 over the binary form of exactly what the fold reads,
// each component's arity and each variant's HA cost and ClusterTerms
// bit patterns. Names, labels and the term never reach it, so two
// problems share a key exactly when they fold identically.
func (e *Evaluator) foldKey() string {
	const tag = "fold/presentation/v1"
	buf := make([]byte, 0, len(tag)+8*len(e.arity)+32*len(e.costs))
	buf = append(buf, tag...)
	for i, k := range e.arity {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		for j := e.off[i]; j < e.off[i]+k; j++ {
			t := e.terms[j]
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.costs[j]))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Up))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.ActiveUp))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Failover))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
