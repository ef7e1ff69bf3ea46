package optimize

import (
	"context"
	"sync"
	"sync/atomic"
)

// ProgressFunc receives periodic search-progress reports: how many of
// the space's candidates have been accounted for (evaluated or
// clipped) and the total space size k^n. Implementations must be fast
// and non-blocking — the enumeration loops call them inline.
type ProgressFunc func(evaluated, spaceSize int64)

// progressKey carries the hook in a context.
type progressKey struct{}

// WithProgress attaches a progress hook to the context. Every search
// entry point that takes a context (AllContext, ExhaustiveContext,
// PrunedContext, ParetoContext, Solve) reports through it on a fixed
// cadence plus once at completion; a nil fn detaches.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ContextProgress returns the WithProgress hook carried by ctx, or
// nil when none is attached. Layers that re-scope a search's progress
// — the broker maps its two Recommend passes onto one combined bar —
// use it to wrap the caller's hook instead of losing it.
func ContextProgress(ctx context.Context) ProgressFunc {
	return progressFrom(ctx)
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

// advance accounts for k more candidates (evaluated or clipped) and
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

// sharedTicker is the progressTicker for concurrent enumerations:
// workers advance a single atomic counter, and whichever worker
// crosses a cadence boundary emits the report. Emissions are
// serialized through a high-water mark, so the hook observes a
// strictly increasing evaluated count even when workers race across
// cadence boundaries — consumers never see the bar move backwards.
type sharedTicker struct {
	fn    ProgressFunc
	space int64
	n     atomic.Int64

	mu       sync.Mutex
	reported int64
}

func newSharedTicker(ctx context.Context, p *Problem) *sharedTicker {
	fn := progressFrom(ctx)
	if fn == nil {
		return &sharedTicker{}
	}
	return &sharedTicker{fn: fn, space: int64(p.SpaceSize())}
}

func (t *sharedTicker) advance(k int64) {
	if t.fn == nil {
		return
	}
	after := t.n.Add(k)
	if after/progressEvery != (after-k)/progressEvery {
		t.emit(after)
	}
}

func (t *sharedTicker) done() {
	if t.fn != nil {
		t.emit(t.n.Load())
	}
}

// emit reports v through the hook unless a higher value already went
// out (a final done() report may repeat the last value). The hook
// runs under the ticker's lock; ProgressFunc's contract (fast,
// non-blocking) keeps the critical section negligible next to the
// 64-candidate emission cadence.
func (t *sharedTicker) emit(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v < t.reported {
		return
	}
	t.reported = v
	t.fn(v, t.space)
}

// StrategyFunc receives the name of the concrete solver a Solve call
// resolved to — for "auto" that is the strategy the heuristic picked,
// for explicit strategies it echoes the request. Like ProgressFunc it
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

// ReportStrategy invokes the context's strategy hook, if any. Solve
// calls it on every search; layers that resolve a strategy without
// running Solve (the broker's fused streaming pass) call it
// themselves so async watchers still hear the resolved choice.
func ReportStrategy(ctx context.Context, strategy string) {
	reportStrategy(ctx, strategy)
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
