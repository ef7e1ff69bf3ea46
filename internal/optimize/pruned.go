package optimize

import "context"

// Pruned implements the Section III.C search: candidates are evaluated
// level by level — first the baseline, then every permutation with one
// clustered component, then two, and so on. Whenever a permutation
// meets the uptime SLA, all of its supersets (same variant choices plus
// additional clustered components) are clipped from later levels: the
// no-HA baseline is each component's cheapest variant, so any superset
// costs at least as much while its penalty can only stay zero or grow
// above the subset's zero, hence its TCO cannot beat the subset's.
//
// The search is exact: it returns the same optimum as Exhaustive (a
// property the tests check on randomized instances) while evaluating
// fewer candidates whenever the SLA is attainable below the top level.
func (p *Problem) Pruned() (Result, error) {
	return p.PrunedContext(context.Background())
}

// PrunedContext is Pruned with cooperative cancellation: the level
// walk aborts with ctx.Err() shortly after ctx is done. A
// WithProgress hook on the context receives periodic reports; clipped
// candidates count toward progress (they are resolved work), so the
// bar approaches the full space even when pruning bites.
//
// Superset checks go through the flat arena met-trie with a
// checkpointed walker (flatindex.go): each lookup pays for the
// consistent portion of the met set below the first digit the level
// walk changed since the previous leaf, instead of a root-down
// pointer chase per leaf.
func (p *Problem) PrunedContext(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, newFlatMetIndex(p))
}

// PrunedPointerTrie is PrunedContext on the previous pointer-linked
// trie index. It is kept as an equivalence oracle and as the
// benchmark reference the trie_flat_speedup ratios measure the flat
// arena against; production paths use PrunedContext.
func (p *Problem) PrunedPointerTrie(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, newMetIndex(p))
}

// PrunedFlatRescan is PrunedContext on the flat arena with the
// checkpointed resume disabled: every lookup re-descends from the
// root. It isolates the arena-layout win from the changed-suffix
// amortization in the benchmark split (solver/pruned-flat vs
// solver/pruned); production paths use PrunedContext.
func (p *Problem) PrunedFlatRescan(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, flatRescanIndex{newFlatMetIndex(p)})
}

// prunedLinear is PrunedContext with the original linear met scan; it
// exists so the equivalence tests and benchmarks can pin the indexed
// searches against the reference implementation.
func (p *Problem) prunedLinear(ctx context.Context) (Result, error) {
	return p.prunedWith(ctx, &linearIndex{})
}

// prunedWith runs the level walk with the given superset index on the
// compiled incremental evaluator: leaves that survive the superset
// check re-fold only the digits the level walk changed since the
// previous evaluated leaf.
func (p *Problem) prunedWith(ctx context.Context, ix coverIndex) (Result, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return Result{}, err
	}
	var res Result
	cc := canceler{ctx: ctx}
	pt := newProgressTicker(ctx, p)
	cur := ev.NewCursor()
	n := len(p.Components)
	for level := 0; level <= n; level++ {
		if err := p.enumerateLevel(&cc, &pt, level, &res, ix, cur); err != nil {
			return Result{}, err
		}
	}
	pt.done()
	return res, nil
}

// enumerateLevel visits every assignment with exactly `level` clustered
// components, skipping supersets of already-met assignments. Exactly
// one cover lookup happens per leaf, and every covering lookup clips
// exactly one candidate — the per-index accounting the three-way
// equivalence tests pin byte-identical. Clipped candidates count
// toward progress (they are resolved work).
func (p *Problem) enumerateLevel(cc *canceler, pt *progressTicker, level int, res *Result, ix coverIndex, cur *Cursor) error {
	a := make(Assignment, len(p.Components))
	return p.walkLevel(a, level, func(changedFrom int) error {
		if err := cc.check(); err != nil {
			return err
		}
		res.CoverLookups++
		pt.advance(1)
		if ix.coversFrom(a, changedFrom) {
			res.Skipped++
			res.Clipped++
			return nil
		}
		cur.Sync(a)
		res.observeCursor(cur, p.SLA)
		if cur.MeetsSLA() {
			ix.insert(a)
		}
		return nil
	})
}

// walkLevel enumerates every assignment with exactly `level` clustered
// components in lexicographic order, invoking leaf at each one with a
// holding it.
//
// leaf receives the lowest digit the walk changed since the previous
// leaf (0 on the first leaf, so resumable cover walkers start every
// level from the root) — the same changed-suffix information
// Cursor.Sync derives by diffing, handed to the superset index so its
// checkpointed walker can resume mid-trie.
func (p *Problem) walkLevel(a Assignment, level int, leaf func(changedFrom int) error) error {
	n := len(p.Components)
	lo := 0
	set := func(idx, v int) {
		if a[idx] != v {
			a[idx] = v
			if idx < lo {
				lo = idx
			}
		}
	}
	var walk func(idx, remaining int) error
	walk = func(idx, remaining int) error {
		if remaining > n-idx {
			return nil // not enough components left to reach the level
		}
		if idx == n {
			changedFrom := lo
			lo = n
			return leaf(changedFrom)
		}

		// Choice 1: leave component idx at the baseline.
		set(idx, 0)
		if err := walk(idx+1, remaining); err != nil {
			return err
		}

		// Choice 2: cluster component idx with each non-baseline variant.
		if remaining > 0 {
			for v := 1; v < len(p.Components[idx].Variants); v++ {
				set(idx, v)
				if err := walk(idx+1, remaining-1); err != nil {
					return err
				}
			}
			set(idx, 0)
		}
		return nil
	}
	return walk(0, level)
}
