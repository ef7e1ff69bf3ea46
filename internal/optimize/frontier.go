package optimize

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// The frontier strategy is an exact dominance DP (Nemhauser & Ullmann,
// Management Science 15(9), 1969) over the Equations 1–4 fold. It
// walks the components left to right, folding each prefix state
// through availability.Accumulator on the Evaluator's compiled tables,
// and after every level drops the states that cannot lead anywhere a
// kept state does not lead at least as well.
//
// Folding a suffix s onto a prefix p gives the system downtime
// 1 − Up_p·Up_s + F_p·AU_s + F_s·AU_p, which for every suffix is
// non-increasing in Up_p and non-decreasing in F_p and AU_p; the
// expected penalty is non-increasing in uptime and HA cost adds. IEEE
// rounding is monotone, so a prefix X that costs no more than Y, has
// Up no lower and Failover and ActiveUp no higher stays at least as
// good as Y under every completion, bit for bit on the same fold.
//
// "At least as good" is not enough to reproduce the reference
// answers: on symmetric shapes ulp-level differences in the running
// products let a prefix strictly dominate another whose completions
// nonetheless tie it exactly, and then the tie-break — lexicographic
// order for Solve, presentation order for the Pareto cards — must
// still see the earlier one. So a state is dropped only when a state
// earlier in the tie order weakly dominates it, or when a strictly
// cheaper one does: a strictly cheaper completion with no lower uptime
// has a strictly lower TCO and a strictly lower HA cost, so no
// tie-break can ever prefer the costlier one. Sorting a level by (cost,
// tie order) makes every earlier state in that sort an admissible
// dominator, which reduces the filter to the three-coordinate maxima
// problem (Kung, Luccio & Preparata, JACM 22(4), 1975) swept with a
// Fenwick tree — O(m log m) per level of m states.
//
// ActiveUp only enters through the Fenwick tree's argmin: a state is
// dropped when the kept state of least Failover among those with Up
// no lower also has ActiveUp no higher. In broker-compiled problems
// every variant of a component keeps its active node count, ActiveUp
// is equal across a level, and the filter is exact; elsewhere it only
// keeps some dominated states, which costs memory, never correctness.

// maxFrontierStates caps the states one DP level may keep: memory is
// O(levels × states). Symmetric shapes keep a handful of states per
// clustered count; random heterogeneous n=30 shapes with up to three
// variants per component stay near 10k. It is a variable only so tests
// can reach the cap on small shapes.
var maxFrontierStates = 1 << 16

// ErrFrontierStateCap reports a frontier run whose level outgrew the
// DP's state cap: the answer would need more memory than the DP may
// hold, however valid the request. Solve then answers with a certified
// incumbent; ParetoContext, which must be exact, returns it.
var ErrFrontierStateCap = errors.New("optimize: frontier level exceeds the state cap")

// errFrontierBudget stops a frontier run whose wall or evaluation
// budget ran out.
var errFrontierBudget = errors.New("optimize: frontier budget exhausted")

// frontierState is one kept prefix: its fold, its HA cost, how many
// components it clusters, and how it was reached (the index of its
// parent in the previous level and the variant it appended).
type frontierState struct {
	acc    availability.Accumulator
	cost   cost.Money
	ha     int
	parent int32
	v      int32
}

// frontierLink is a kept state's back-pointer, all the DP retains of
// the levels behind the one it is folding.
type frontierLink struct{ parent, v int32 }

// frontierRun is one DP pass over a compiled problem.
type frontierRun struct {
	ev *Evaluator

	// presentation selects the tie order: presentation order (fewest
	// clustered components, then lexicographic) for the Pareto cards,
	// lexicographic for Solve.
	presentation bool

	cc    canceler
	bt    budgetTracker
	pt    progressTicker
	space int64

	// folds, when set, memoizes the run's fold (see WithFoldCache).
	folds FoldCache

	// Scratch reused across levels.
	order []int32
	drop  []bool
	ups   []float64
	fw    fenwickMinF
}

// fold runs the filtered levels: components 0..n-2. Its Fold holds
// the kept states of the last filtered level; the caller folds
// component n-1 onto them unfiltered.
func (r *frontierRun) fold() (*Fold, error) {
	e := r.ev
	n := len(e.arity)
	f := &Fold{}
	states := []frontierState{{acc: availability.NewAccumulator(), parent: -1}}
	below := r.space // candidates below one state of the current level
	for i := 0; i < n-1; i++ {
		below /= int64(e.arity[i])
		next := make([]frontierState, 0, len(states)*e.arity[i])
		for si := range states {
			s := &states[si]
			for v := 0; v < e.arity[i]; v++ {
				if err := r.spend(); err != nil {
					return nil, err
				}
				next = append(next, s.child(e, i, v, si))
			}
		}
		kept := r.filter(next)
		dropped := int64(len(next)-len(kept)) * below
		f.dropped += dropped
		r.pt.advance(dropped)
		if len(kept) > maxFrontierStates {
			return nil, ErrFrontierStateCap
		}
		links := make([]frontierLink, len(kept))
		for j := range kept {
			links[j] = frontierLink{kept[j].parent, kept[j].v}
		}
		f.back = append(f.back, links)
		states = kept
	}
	// A copy, so a cached fold holds no more than the kept states.
	f.last = slices.Clone(states)
	return f, nil
}

// spend polls cancellation and the budget, then accounts one fold.
func (r *frontierRun) spend() error {
	if err := r.cc.check(); err != nil {
		return err
	}
	if r.bt.exceeded() {
		return errFrontierBudget
	}
	r.bt.spend()
	return nil
}

// child folds variant v of component i onto the state at index si.
func (s *frontierState) child(e *Evaluator, i, v, si int) frontierState {
	j := e.off[i] + v
	c := frontierState{acc: s.acc, cost: s.cost + e.costs[j], ha: s.ha, parent: int32(si), v: int32(v)}
	c.acc.Add(e.terms[j])
	if v != 0 {
		c.ha++
	}
	return c
}

// filter keeps the states of one level that no admissible dominator
// weakly dominates, preserving their (lexicographic) order.
func (r *frontierRun) filter(states []frontierState) []frontierState {
	m := len(states)
	r.order = r.order[:0]
	for j := range states {
		r.order = append(r.order, int32(j))
	}
	// The states arrive in lexicographic order, so a stable sort on
	// (cost[, clustered count]) yields (cost, tie order).
	slices.SortStableFunc(r.order, func(a, b int32) int {
		x, y := &states[a], &states[b]
		if c := cmp.Compare(x.cost, y.cost); c != 0 || !r.presentation {
			return c
		}
		return cmp.Compare(x.ha, y.ha)
	})

	// Up ranks, descending, so a Fenwick prefix is "Up no lower".
	r.ups = r.ups[:0]
	for j := range states {
		r.ups = append(r.ups, states[j].acc.Up)
	}
	slices.SortFunc(r.ups, func(a, b float64) int { return cmp.Compare(b, a) })
	r.ups = slices.Compact(r.ups)
	r.fw.reset(len(r.ups))

	r.drop = slices.Grow(r.drop[:0], m)[:m]
	for _, j := range r.order {
		s := &states[j]
		rank := sort.Search(len(r.ups), func(k int) bool { return r.ups[k] <= s.acc.Up })
		f, au, ok := r.fw.query(rank)
		r.drop[j] = ok && f <= s.acc.Failover && au <= s.acc.ActiveUp
		if !r.drop[j] {
			r.fw.update(rank, s.acc.Failover, s.acc.ActiveUp)
		}
	}
	kept := states[:0]
	for j := range states {
		if !r.drop[j] {
			kept = append(kept, states[j])
		}
	}
	return kept
}

// frontierLeaf is one complete assignment, variant v folded onto
// state si of the last filtered level, with all that pricing it needs
// besides the term.
type frontierLeaf struct {
	si, v  int
	ha     int
	cost   cost.Money
	uptime float64
}

// leaves folds the last component onto every kept state of f and
// visits each completion, in lexicographic order.
func (r *frontierRun) leaves(f *Fold, visit func(frontierLeaf)) error {
	e := r.ev
	last := len(e.arity) - 1
	for si := range f.last {
		for v := 0; v < e.arity[last]; v++ {
			if err := r.spend(); err != nil {
				return err
			}
			c := f.last[si].child(e, last, v, si)
			visit(frontierLeaf{si: si, v: v, ha: c.ha, cost: c.cost, uptime: c.acc.Uptime()})
		}
	}
	return nil
}

// front collects the leaves of f on the (HA cost, uptime) front: the
// leaves no other leaf matches or beats on both, by ascending HA cost,
// each exact tie represented by its first leaf in presentation order.
func (r *frontierRun) front(f *Fold) error {
	var all []frontierLeaf
	if err := r.leaves(f, func(l frontierLeaf) { all = append(all, l) }); err != nil {
		return err
	}
	// all is in lexicographic order, so a stable sort on (cost,
	// uptime, clustered count) leaves exact ties in presentation order.
	slices.SortStableFunc(all, func(x, y frontierLeaf) int {
		if c := cmp.Compare(x.cost, y.cost); c != 0 {
			return c
		}
		if c := cmp.Compare(y.uptime, x.uptime); c != 0 {
			return c
		}
		return cmp.Compare(x.ha, y.ha)
	})
	for _, l := range all {
		if len(f.front) == 0 || l.uptime > f.front[len(f.front)-1].uptime {
			f.front = append(f.front, l)
		}
	}
	return nil
}

// build runs the filtered levels and, when withFront is set, collects
// the front.
func (r *frontierRun) build(withFront bool) (*Fold, error) {
	f, err := r.fold()
	if err != nil || !withFront {
		return f, err
	}
	return f, r.front(f)
}

// prepare returns the run's fold, with its front when withFront is
// set: from the fold cache when the run has one, built here
// otherwise. Either way the ticker ends at the fold's share of the
// space, so the leaves' progress follows on from it.
func (r *frontierRun) prepare(withFront bool) (*Fold, error) {
	if r.folds == nil {
		return r.build(withFront)
	}
	f, err := r.folds.Fold(r.cc.ctx, r.ev.foldKey(), func(ctx context.Context) (*Fold, error) {
		return newFrontierRun(ctx, r.ev, Budget{}, true).build(true)
	})
	if err != nil {
		return nil, err
	}
	// A build that ran for this call reported at most this much to its
	// hook on the way; a cached or shared fold reported nothing to it.
	r.pt.advance(f.dropped)
	return f, nil
}

// newFrontierRun sets up one DP pass. Only an unbudgeted
// presentation-order run takes the context's fold cache: budgeted
// runs may stop early, and the lexicographic order's folds differ.
func newFrontierRun(ctx context.Context, ev *Evaluator, b Budget, presentation bool) *frontierRun {
	r := &frontierRun{
		ev:           ev,
		presentation: presentation,
		cc:           canceler{ctx: ctx},
		bt:           newBudgetTracker(b),
		pt:           newProgressTicker(ctx, ev.p),
		space:        int64(ev.p.SpaceSize()),
	}
	if presentation && b.IsZero() {
		r.folds = foldCacheFrom(ctx)
	}
	return r
}

// frontierSearch is the frontier strategy. In lexicographic tie order
// Best and BestNoPenalty are exactly ExhaustiveContext's, assignments
// included; in presentation tie order they are the option cards'
// picks (see SolvePresentation). Evaluated counts the complete
// assignments priced on the last level; Skipped is the rest of the
// space.
//
// A wall budget, an evaluation budget (every fold counts as one
// evaluation) or the level state cap ends the run early. The answer is
// then Greedy's incumbent, certified against the root relaxation
// bound: Approximate, Bound, Gap and Optimal are set, BudgetExhausted
// says whether a budget (rather than the cap) fired, and Evaluated
// counts the distinct assignments Greedy priced.
func (p *Problem) frontierSearch(ctx context.Context, b Budget, presentation bool) (Result, error) {
	ev, err := newEvaluatorShape(p)
	if err != nil {
		return Result{}, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	r := newFrontierRun(ctx, ev, b, presentation)
	res, err := r.solve()
	if spent := errors.Is(err, errFrontierBudget); spent || errors.Is(err, ErrFrontierStateCap) {
		var distinct int
		if res, distinct, err = p.greedy(); err != nil {
			return Result{}, err
		}
		res.Evaluated = distinct
		res.certify(p.rootLowerBound(), spent)
	}
	if err != nil {
		return Result{}, err
	}
	res.Skipped = int(r.space - int64(res.Evaluated))
	r.pt.advance(r.space - r.pt.n)
	r.pt.done()
	return res, nil
}

// solve runs the DP and picks the incumbents the way the run's tie
// order asks: lowest TCO, then (lexicographic) highest uptime or
// (presentation) fewest clustered components, then the first leaf
// visited — leaves arrive in lexicographic order, so only strict
// improvements replace. SLA-meeting leaves carry no penalty, so the
// same comparison picks BestNoPenalty by HA cost.
func (r *frontierRun) solve() (Result, error) {
	f, err := r.prepare(false)
	if err != nil {
		return Result{}, err
	}
	var res Result
	var best, meet frontierLeaf
	var bestTotal, meetTotal cost.Money
	found := false
	sla := r.ev.p.SLA
	target := sla.Target()
	improves := func(l frontierLeaf, total cost.Money, inc frontierLeaf, incTotal cost.Money) bool {
		if total != incTotal {
			return total < incTotal
		}
		if r.presentation {
			return l.ha < inc.ha
		}
		return l.uptime > inc.uptime
	}
	if err := r.leaves(f, func(l frontierLeaf) {
		total := cost.Compute(l.cost, sla, l.uptime).Total()
		if res.Evaluated == 0 || improves(l, total, best, bestTotal) {
			best, bestTotal = l, total
		}
		if l.uptime >= target && (!found || improves(l, total, meet, meetTotal)) {
			meet, meetTotal, found = l, total, true
		}
		res.Evaluated++
		r.pt.advance(1)
	}); err != nil {
		return Result{}, err
	}
	res.Best = f.candidate(best, sla)
	if found {
		res.NoPenaltyFound = true
		res.BestNoPenalty = f.candidate(meet, sla)
	}
	return res, nil
}

// ParetoContext returns the cost × uptime frontier of the whole
// space, computed by the frontier DP rather than by enumerating k^n
// candidates: the candidates no other candidate matches or beats on
// both HA cost and uptime, sorted by ascending HA cost. Of candidates
// tied on both, the one first in presentation order (fewest clustered
// components, then lexicographic) represents them. The space is
// capped only by the shape ceiling; a level that outgrows the DP's
// state cap fails. Cancellation, WithProgress reporting and a
// WithFoldCache cache behave as in the other searches; with a cached
// fold only the front's candidates are priced.
func (p *Problem) ParetoContext(ctx context.Context) ([]Candidate, error) {
	ev, err := newEvaluatorShape(p)
	if err != nil {
		return nil, err
	}
	r := newFrontierRun(ctx, ev, Budget{}, true)
	f, err := r.prepare(true)
	if err != nil {
		return nil, err
	}
	// The front accounts for every leaf.
	r.pt.advance(r.space - r.pt.n)
	r.pt.done()
	front := make([]Candidate, len(f.front))
	for i, l := range f.front {
		front[i] = f.candidate(l, p.SLA)
	}
	return front, nil
}

// fenwickMinF is a Fenwick tree over Up ranks answering "the kept
// state of least Failover among ranks 0..r", with ties on Failover
// broken toward the lower ActiveUp.
type fenwickMinF struct {
	f, au []float64
	set   []bool
}

func (t *fenwickMinF) reset(n int) {
	t.f = slices.Grow(t.f[:0], n)[:n]
	t.au = slices.Grow(t.au[:0], n)[:n]
	t.set = slices.Grow(t.set[:0], n)[:n]
	clear(t.set)
}

func (t *fenwickMinF) update(rank int, f, au float64) {
	for i := rank + 1; i <= len(t.f); i += i & -i {
		k := i - 1
		if !t.set[k] || f < t.f[k] || (f == t.f[k] && au < t.au[k]) {
			t.f[k], t.au[k], t.set[k] = f, au, true
		}
	}
}

func (t *fenwickMinF) query(rank int) (f, au float64, ok bool) {
	for i := rank + 1; i > 0; i -= i & -i {
		k := i - 1
		if t.set[k] && (!ok || t.f[k] < f || (t.f[k] == f && t.au[k] < au)) {
			f, au, ok = t.f[k], t.au[k], true
		}
	}
	return f, au, ok
}
