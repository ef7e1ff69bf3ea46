package broker

import (
	"context"

	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
)

// cacheReportKey carries the WithCacheReport hook.
type cacheReportKey struct{}

// WithCacheReport attaches a hook that hears how the engine's cache
// answered a Recommend or Pareto call: "hit" (served from the cache, no
// search ran), "miss" (this call ran the search) or "shared" (this call
// joined another caller's identical in-flight search). Recommend
// reports its result-cache lookup, Pareto its fold lookup. The hook
// fires once per successful call, after the result is available; it
// never fires on engines without a cache, which is how the HTTP layer
// decides whether to emit an X-Cache header at all.
func WithCacheReport(ctx context.Context, fn func(status string)) context.Context {
	return context.WithValue(ctx, cacheReportKey{}, fn)
}

// reportCacheStatus invokes a WithCacheReport hook, if any, with a
// status that is set (a call on an engine without a cache has none).
func reportCacheStatus(ctx context.Context, status reccache.Status) {
	if fn, ok := ctx.Value(cacheReportKey{}).(func(status string)); ok && status != "" {
		fn(string(status))
	}
}

// Per-value resident-size estimates for the cache's byte budget. They
// only need to be proportionate, not exact: the budget is approximate
// by contract, and every entry is dominated by its card slice.
const (
	cardOverhead           = 120 // OptionCard struct + slice header slack
	choiceOverhead         = 48  // Choice struct + string headers
	recommendationOverhead = 160 // Recommendation struct + strings
)

// cardsBytes estimates the resident size of a card slice.
func cardsBytes(cards []OptionCard) int64 {
	n := int64(0)
	for i := range cards {
		n += cardOverhead
		for _, ch := range cards[i].Choices {
			n += choiceOverhead + int64(len(ch.Component)+len(ch.TechID))
		}
	}
	return n
}

// Recommend runs the full brokerage flow for one request (see
// recommend for the search itself). With a result cache attached
// (WithResultCache), the request is first normalized and content-
// addressed: repeated identical requests are answered from the cache
// in O(1) without compiling anything, and concurrent identical
// requests collapse into a single search whose result every caller
// shares. The returned *Recommendation may therefore be shared —
// treat it as read-only. A WithCacheReport hook on the context hears
// which of the three ways the call was answered.
//
// The search runs detached from any single caller's cancellation: ctx
// cancellation makes this call return ctx.Err() immediately, but the
// underlying search keeps running while other callers wait on it, and
// is abandoned only when the last of them leaves.
func (e *Engine) Recommend(ctx context.Context, req Request) (*Recommendation, error) {
	req = e.normalize(req)
	if e.cache == nil {
		return e.recommend(ctx, req)
	}
	v, status, err := e.cache.Do(ctx, e.cacheKey(req), func(fctx context.Context) (any, int64, error) {
		rec, err := e.recommend(fctx, req)
		if err != nil {
			return nil, 0, err
		}
		return rec, recommendationOverhead + cardsBytes(rec.Cards), nil
	})
	if err != nil {
		return nil, err
	}
	reportCacheStatus(ctx, status)
	return v.(*Recommendation), nil
}

// withFolds attaches the engine's fold cache to ctx, when the engine
// has one. optimize consults it only where a fold may be shared: an
// unbudgeted frontier run in presentation order. A non-nil status
// hears how the lookup was answered.
func (e *Engine) withFolds(ctx context.Context, status *reccache.Status) context.Context {
	if e.folds == nil {
		return ctx
	}
	return optimize.WithFoldCache(ctx, foldCache{e.folds, status})
}

// foldCache serves optimize's folds from the result cache's fold
// partition. The content address is optimize's: a hash of exactly what
// the fold reads, with no epoch, since a catalog edit or an
// observation that moves a fold's inputs moves its address too.
type foldCache struct {
	p      *reccache.Partition
	status *reccache.Status
}

// Fold implements optimize.FoldCache.
func (c foldCache) Fold(ctx context.Context, key string, build func(context.Context) (*optimize.Fold, error)) (*optimize.Fold, error) {
	v, status, err := c.p.Do(ctx, key, func(fctx context.Context) (any, int64, error) {
		f, err := build(fctx)
		if err != nil {
			return nil, 0, err
		}
		return f, f.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	if c.status != nil {
		*c.status = status
	}
	return v.(*optimize.Fold), nil
}
