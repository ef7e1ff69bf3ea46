package optimize

import "context"

// StreamContext enumerates every one of the k^n candidates in
// mixed-radix order, presenting each to visit through a Cursor — the
// streaming counterpart of AllContext for consumers that fold
// candidates online (option cards, incumbents, Pareto frontiers)
// instead of materializing an O(k^n) slice. The cursor is reused
// between calls: visit must read what it needs (Uptime, TCO,
// Assignment, Index) before returning and must not retain the cursor
// or its assignment view; Candidate() clones for retention.
//
// The enumeration runs on the compiled incremental evaluator: zero
// heap allocations per step in steady state, with values
// bit-identical to Problem.Evaluate. Cancellation and WithProgress
// reporting behave exactly as in AllContext; an error from visit
// aborts the stream and is returned verbatim.
func (p *Problem) StreamContext(ctx context.Context, visit func(*Cursor) error) error {
	ev, err := NewEvaluator(p)
	if err != nil {
		return err
	}
	return ev.stream(ctx, visit)
}

// stream is the sequential streaming core over a compiled evaluator.
func (e *Evaluator) stream(ctx context.Context, visit func(*Cursor) error) error {
	cur := e.NewCursor()
	cc := canceler{ctx: ctx}
	pt := newProgressTicker(ctx, e.p)
	for {
		if err := cc.check(); err != nil {
			return err
		}
		if err := visit(cur); err != nil {
			return err
		}
		pt.advance(1)
		if !cur.Advance() {
			pt.done()
			return nil
		}
	}
}
