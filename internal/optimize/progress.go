package optimize

import "context"

// ProgressFunc receives periodic search-progress reports: how many of
// the space's candidates have been accounted for (evaluated or
// skipped) and the total space size k^n. Implementations must be fast
// and non-blocking — the enumeration loops call them inline.
type ProgressFunc func(evaluated, spaceSize int64)

// progressKey carries the hook in a context.
type progressKey struct{}

// WithProgress attaches a progress hook to the context. Every search
// entry point that takes a context (AllContext, ExhaustiveContext,
// StreamContext, ParetoContext, Solve) reports through it on a fixed
// cadence plus once at completion; a nil fn detaches.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the hook, or nil.
func progressFrom(ctx context.Context) ProgressFunc {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// progressEvery is how many candidates pass between hook invocations.
// Matches the cancellation poll cadence: cheap enough to vanish in
// profiles, frequent enough that watchers see sub-millisecond-fresh
// numbers on large spaces.
const progressEvery = 64

// progressTicker amortizes hook calls across enumeration iterations.
type progressTicker struct {
	fn    ProgressFunc
	space int64
	n     int64
}

// newProgressTicker builds the ticker for one enumeration run over p.
func newProgressTicker(ctx context.Context, p *Problem) progressTicker {
	fn := progressFrom(ctx)
	if fn == nil {
		return progressTicker{}
	}
	return progressTicker{fn: fn, space: int64(p.SpaceSize())}
}

// advance accounts for k more candidates (evaluated or skipped) and
// reports on the cadence boundary.
func (t *progressTicker) advance(k int64) {
	if t.fn == nil {
		return
	}
	before := t.n / progressEvery
	t.n += k
	if t.n/progressEvery != before {
		t.fn(t.n, t.space)
	}
}

// done emits the final report.
func (t *progressTicker) done() {
	if t.fn != nil {
		t.fn(t.n, t.space)
	}
}

// StrategyFunc receives the name of the concrete solver a Solve call
// resolved to: frontier for "auto" and the retired aliases, the
// request's own name otherwise. Like ProgressFunc it
// must be fast and non-blocking.
type StrategyFunc func(strategy string)

// strategyKey carries the hook in a context.
type strategyKey struct{}

// WithStrategyReport attaches a strategy hook to the context: Solve
// reports the resolved solver through it once per call, before the
// enumeration starts. A nil fn detaches.
func WithStrategyReport(ctx context.Context, fn StrategyFunc) context.Context {
	return context.WithValue(ctx, strategyKey{}, fn)
}

// reportStrategy invokes the context's strategy hook, if any.
func reportStrategy(ctx context.Context, strategy string) {
	if ctx == nil {
		return
	}
	if fn, ok := ctx.Value(strategyKey{}).(StrategyFunc); ok && fn != nil {
		fn(strategy)
	}
}
