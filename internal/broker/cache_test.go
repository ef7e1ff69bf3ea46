package broker

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/topology"
)

// countingParams wraps a ParamSource and counts NodeParams calls —
// one compile makes exactly one call per component, so the counter
// measures how many searches actually ran.
type countingParams struct {
	inner ParamSource
	calls atomic.Int64
}

func (c *countingParams) NodeParams(provider, class string) (availability.NodeParams, error) {
	c.calls.Add(1)
	return c.inner.NodeParams(provider, class)
}

func newCachedTestEngine(t *testing.T, cfg reccache.Config) (*Engine, *countingParams, *reccache.Cache) {
	t.Helper()
	cat := catalog.Default()
	params := &countingParams{inner: CatalogParams{Catalog: cat}}
	cache := reccache.New(cfg)
	e, err := New(cat, params, WithResultCache(cache))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, params, cache
}

func TestCacheKeyIgnoresNonSemanticSpellings(t *testing.T) {
	e := newTestEngine(t)
	base := e.normalize(CaseStudy())
	baseKey := e.cacheKey(base)

	// Allowed-techs list order and duplicates must not move the key.
	shuffled := CaseStudy()
	shuffled.AllowedTechs = map[string][]string{}
	for name, ids := range base.AllowedTechs {
		rev := make([]string, 0, 2*len(ids))
		for i := len(ids) - 1; i >= 0; i-- {
			rev = append(rev, ids[i], ids[i]) // reversed AND duplicated
		}
		shuffled.AllowedTechs[name] = rev
	}
	if got := e.cacheKey(e.normalize(shuffled)); got != baseKey {
		t.Fatal("allowed-techs order/duplication changed the cache key")
	}

	// An explicit class equal to the layer default is the same request
	// as an empty class.
	explicit := CaseStudy()
	for i := range explicit.Base.Components {
		explicit.Base.Components[i].Class = explicit.Base.Components[i].EffectiveClass()
	}
	if got := e.cacheKey(e.normalize(explicit)); got != baseKey {
		t.Fatal("explicit default class changed the cache key")
	}

	// An as-is entry naming the baseline ("") means the same as no
	// entry for that component.
	missing := CaseStudy()
	delete(missing.AsIs, "compute")
	explicitBaseline := CaseStudy()
	explicitBaseline.AsIs["compute"] = ""
	if e.cacheKey(e.normalize(missing)) != e.cacheKey(e.normalize(explicitBaseline)) {
		t.Fatal("explicit baseline as-is entry should hash like a missing entry")
	}
	if e.cacheKey(e.normalize(missing)) == baseKey {
		t.Fatal("dropping a real as-is entry should change the key")
	}
}

func TestCacheKeySeparatesSemanticDifferences(t *testing.T) {
	e := newTestEngine(t)
	keys := map[string]string{}
	add := func(label, key string) {
		t.Helper()
		for prev, k := range keys {
			if k == key {
				t.Fatalf("%s collides with %s", label, prev)
			}
		}
		keys[label] = key
	}
	base := CaseStudy()
	add("base", e.cacheKey(e.normalize(base)))

	sla := CaseStudy()
	sla.SLA.UptimePercent += 0.5
	add("sla", e.cacheKey(e.normalize(sla)))

	strat := CaseStudy()
	strat.Strategy = "exhaustive"
	add("strategy", e.cacheKey(e.normalize(strat)))

	// nil as-is (no incumbent) and empty as-is (all-baseline
	// incumbent) are different requests with different answers.
	noAsIs := CaseStudy()
	noAsIs.AsIs = nil
	add("nil as-is", e.cacheKey(e.normalize(noAsIs)))
	emptyAsIs := CaseStudy()
	emptyAsIs.AsIs = Plan{}
	add("empty as-is", e.cacheKey(e.normalize(emptyAsIs)))

	// Component order is semantic: it defines presentation order.
	swapped := CaseStudy()
	swapped.Base.Components = append([]topology.Component(nil), swapped.Base.Components...)
	swapped.Base.Components[0], swapped.Base.Components[1] = swapped.Base.Components[1], swapped.Base.Components[0]
	add("component order", e.cacheKey(e.normalize(swapped)))

	// A catalog mutation must change every key.
	e.catalog.Invalidate()
	add("epoch bump", e.cacheKey(e.normalize(base)))
}

func TestRecommendCacheHitSkipsSearch(t *testing.T) {
	e, params, cache := newCachedTestEngine(t, reccache.Config{})
	req := CaseStudy()

	var statuses []string
	ctx := WithCacheReport(context.Background(), func(status string) {
		statuses = append(statuses, status)
	})

	first, err := e.Recommend(ctx, req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	calls := params.calls.Load()
	if calls == 0 {
		t.Fatal("first Recommend should have compiled")
	}
	second, err := e.Recommend(ctx, req)
	if err != nil {
		t.Fatalf("second Recommend: %v", err)
	}
	if got := params.calls.Load(); got != calls {
		t.Fatalf("cache hit still compiled: %d -> %d NodeParams calls", calls, got)
	}
	if first != second {
		t.Fatal("cache hit should return the shared *Recommendation")
	}
	if len(statuses) != 2 || statuses[0] != "miss" || statuses[1] != "hit" {
		t.Fatalf("cache report = %v, want [miss hit]", statuses)
	}
	m := cache.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Entries != 1 || m.Bytes <= 0 {
		t.Fatalf("cache metrics = %+v", m)
	}

	// Catalog mutation: the same request is a different content
	// address and recomputes.
	e.catalog.Invalidate()
	third, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("post-invalidate Recommend: %v", err)
	}
	if params.calls.Load() == calls {
		t.Fatal("catalog invalidation did not force a recompute")
	}
	if third == first {
		t.Fatal("post-invalidate result should be a fresh computation")
	}
}

// TestParetoAfterRecommendSharesFold: Pareto stores no answer of its
// own, so after a Recommend of the same request it prices the fold the
// Recommend built, and the cache holds the Recommend result and that
// fold.
func TestParetoAfterRecommendSharesFold(t *testing.T) {
	e, _, cache := newCachedTestEngine(t, reccache.Config{})
	req := CaseStudy()
	if _, err := e.Recommend(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var status string
	ctx := WithCacheReport(context.Background(), func(s string) { status = s })
	front, err := e.Pareto(ctx, req)
	if err != nil {
		t.Fatalf("Pareto: %v", err)
	}
	if status != "hit" {
		t.Fatalf("Pareto after Recommend = %q, want hit (one fold)", status)
	}
	front2, err := e.Pareto(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if status != "hit" {
		t.Fatalf("second Pareto = %q, want hit", status)
	}
	if !reflect.DeepEqual(front2, front) {
		t.Fatal("frontier from the cached fold diverges")
	}
	if m := cache.Metrics(); m.Entries != 1 || m.Hits+m.Misses+m.Shared != 1 {
		t.Fatalf("result metrics = %+v, want the Recommend entry and lookup alone", m)
	}
	if m := e.folds.Metrics(); m.Entries != 1 || m.Misses != 1 || m.Hits != 2 {
		t.Fatalf("fold metrics = %+v, want one entry, 1 miss and 2 hits", m)
	}
}

// TestParetoFreshTermsKeepOneFold: fresh SLA terms on one architecture
// leave one cache entry, its fold — the first call folds, every later
// one prices the cached fold, and no call touches the result cache.
func TestParetoFreshTermsKeepOneFold(t *testing.T) {
	e, _, cache := newCachedTestEngine(t, reccache.Config{})
	const calls = 6
	var statuses []string
	ctx := WithCacheReport(context.Background(), func(s string) { statuses = append(statuses, s) })
	for i := 0; i < calls; i++ {
		req := wideRequest(12)
		req.SLA.UptimePercent = 95 + 0.5*float64(i)
		req.SLA.Penalty.PerHour = cost.Dollars(float64(50 + 25*i))
		if _, err := e.Pareto(ctx, req); err != nil {
			t.Fatalf("term %d: %v", i, err)
		}
	}
	if m := cache.Metrics(); m != (reccache.Metrics{}) {
		t.Fatalf("result metrics = %+v, want untouched", m)
	}
	if m := e.folds.Metrics(); m.Entries != 1 || m.Misses != 1 || m.Hits != calls-1 || m.Shared != 0 {
		t.Fatalf("fold metrics = %+v, want one entry, 1 miss and %d hits", m, calls-1)
	}
	want := []string{"miss"}
	for len(want) < calls {
		want = append(want, "hit")
	}
	if !reflect.DeepEqual(statuses, want) {
		t.Fatalf("cache reports = %v, want %v", statuses, want)
	}
}

// TestConcurrentBurstRunsOneSearch is the acceptance-criteria
// assertion: a concurrent burst of identical requests performs
// exactly one solver run. One search compiles exactly
// len(components) NodeParams lookups, so the counter equals that
// after any burst size.
func TestConcurrentBurstRunsOneSearch(t *testing.T) {
	e, params, cache := newCachedTestEngine(t, reccache.Config{})
	req := CaseStudy()
	components := len(req.Base.Components)

	const burst = 24
	var wg sync.WaitGroup
	recs := make([]*Recommendation, burst)
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = e.Recommend(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i := range recs {
		if errs[i] != nil {
			t.Fatalf("burst call %d: %v", i, errs[i])
		}
		if recs[i] != recs[0] {
			t.Fatalf("burst call %d got a different result object", i)
		}
	}
	if got := params.calls.Load(); got != int64(components) {
		t.Fatalf("burst of %d identical requests made %d NodeParams calls, want %d (one compile)",
			burst, got, components)
	}
	m := cache.Metrics()
	if m.Misses != 1 {
		t.Fatalf("burst produced %d misses, want exactly 1 solver run", m.Misses)
	}
	if m.Hits+m.Shared != burst-1 {
		t.Fatalf("hits+shared = %d, want %d", m.Hits+m.Shared, burst-1)
	}
}

func TestUncachedEngineStillRecommends(t *testing.T) {
	e := newTestEngine(t)
	fired := false
	ctx := WithCacheReport(context.Background(), func(string) { fired = true })
	if _, err := e.Recommend(ctx, CaseStudy()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pareto(ctx, CaseStudy()); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cache report hook must not fire on an engine without a cache")
	}
}
