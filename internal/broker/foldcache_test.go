package broker

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
	"uptimebroker/internal/topology"
)

// foldTestEngines builds two engines over one catalog and one
// telemetry-backed parameter source: one fronted by a result cache,
// and so by a fold cache, and one with neither.
func foldTestEngines(t *testing.T) (cached, plain *Engine, cat *catalog.Catalog, store *telemetry.Store) {
	t.Helper()
	cat = catalog.Default()
	store = telemetry.NewStore()
	params := TelemetryParams{Store: store, Fallback: CatalogParams{Catalog: cat}, MinExposureYears: 1}
	var err error
	if cached, err = New(cat, params, WithResultCache(reccache.New(reccache.Config{}))); err != nil {
		t.Fatal(err)
	}
	if plain, err = New(cat, params); err != nil {
		t.Fatal(err)
	}
	return cached, plain, cat, store
}

// TestFoldCacheMatchesUncachedEngine is the fold cache's differential
// contract: across fresh terms, an observation that moves no estimate,
// one that moves an estimate, and a catalog addition, the cached
// engine's Recommend and Pareto answers — search statistics included —
// equal those of an engine that folds every request afresh, and the
// fold lookups hit exactly where the fold's inputs did not change.
func TestFoldCacheMatchesUncachedEngine(t *testing.T) {
	cached, plain, cat, store := foldTestEngines(t)
	open := CaseStudy()
	open.AllowedTechs = nil
	archs := []Request{CaseStudy(), open, FutureWork(catalog.ProviderSoftLayerSim), wideRequest(12)}
	terms := []cost.SLA{
		{UptimePercent: 98, Penalty: cost.Penalty{PerHour: cost.Dollars(100)}},
		{UptimePercent: 99.5, Penalty: cost.Penalty{PerHour: cost.Dollars(40)}},
		{UptimePercent: 95, Penalty: cost.Penalty{PerHour: cost.Dollars(300)}},
		{UptimePercent: 99.9, Penalty: cost.Penalty{PerHour: cost.Dollars(1000)}},
	}
	ctx := context.Background()
	// compare asks both engines every architecture under every term and
	// returns how many fold lookups missed.
	compare := func(step string) int64 {
		t.Helper()
		before := cached.folds.Metrics().Misses
		for i, arch := range archs {
			for _, term := range terms {
				req := arch
				req.SLA = term
				got, err := cached.Recommend(ctx, req)
				if err != nil {
					t.Fatalf("%s: arch %d: cached Recommend: %v", step, i, err)
				}
				want, err := plain.Recommend(ctx, req)
				if err != nil {
					t.Fatalf("%s: arch %d: Recommend: %v", step, i, err)
				}
				if !reflect.DeepEqual(*got, *want) {
					t.Fatalf("%s: arch %d, %v: cached answer diverges:\n  cached %+v\n  fresh  %+v", step, i, term, *got, *want)
				}
				gotFront, err := cached.Pareto(ctx, req)
				if err != nil {
					t.Fatalf("%s: arch %d: cached Pareto: %v", step, i, err)
				}
				wantFront, err := plain.Pareto(ctx, req)
				if err != nil {
					t.Fatalf("%s: arch %d: Pareto: %v", step, i, err)
				}
				if !reflect.DeepEqual(gotFront, wantFront) {
					t.Fatalf("%s: arch %d, %v: cached frontier diverges:\n  cached %+v\n  fresh  %+v", step, i, term, gotFront, wantFront)
				}
			}
		}
		return cached.folds.Metrics().Misses - before
	}

	if got := compare("fresh terms"); got != int64(len(archs)) {
		t.Fatalf("fresh terms: %d fold misses, want one per architecture (%d)", got, len(archs))
	}
	if m := cached.folds.Metrics(); m.Hits == 0 || m.Entries != int64(len(archs)) {
		t.Fatalf("fold metrics after fresh terms = %+v, want hits and %d entries", m, len(archs))
	}

	// An hour of exposure stays under the one-year minimum: the epoch
	// moves (every result misses) but no estimate does, so every fold
	// hits.
	if err := store.RecordExposure(catalog.ProviderSoftLayerSim, topology.ClassVirtualMachine, time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := compare("no-op observation"); got != 0 {
		t.Fatalf("no-op observation: %d fold misses, want 0", got)
	}

	// Two node-years with two outages replace the catalog default for
	// bare-metal tiers, which only the five-tier architecture has: its
	// fold alone misses.
	for _, err := range []error{
		store.RecordExposure(catalog.ProviderSoftLayerSim, topology.ClassBareMetal, 2*365*24*time.Hour),
		store.RecordOutage(catalog.ProviderSoftLayerSim, topology.ClassBareMetal, 3*time.Hour),
		store.RecordOutage(catalog.ProviderSoftLayerSim, topology.ClassBareMetal, 3*time.Hour),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := compare("estimate-moving observation"); got != 1 {
		t.Fatalf("estimate-moving observation: %d fold misses, want 1", got)
	}

	// A new compute technology widens the open-catalog menus alone.
	if err := cat.AddTechnology(catalog.HATechnology{
		ID: "test-ha", Name: "test HA pair", Layer: topology.LayerCompute, StandbyNodes: 1,
		Mode: catalog.StandbyHot, Failover: time.Minute, InfraFixed: cost.Dollars(120),
		InfraPerStandby: cost.Dollars(700), LaborHoursPerMonth: 6,
	}); err != nil {
		t.Fatal(err)
	}
	if got := compare("catalog addition"); got != 2 {
		t.Fatalf("catalog addition: %d fold misses, want 2 (the two open-catalog architectures)", got)
	}
}

// TestFoldCacheSkipsBudgetedAndNamedRuns: a budget, or a named
// exhaustive or pruned strategy, keeps a request on the path that
// folds for itself — it neither reads nor writes the fold cache.
func TestFoldCacheSkipsBudgetedAndNamedRuns(t *testing.T) {
	cached, _, _, _ := foldTestEngines(t)
	ctx := context.Background()
	for _, cfg := range []optimize.SolverConfig{
		{Budget: optimize.Budget{MaxEvaluations: 1 << 20}},
		{Strategy: optimize.StrategyFrontier, Budget: optimize.Budget{Wall: time.Minute}},
		{Strategy: optimize.StrategyExhaustive},
		{Strategy: optimize.StrategyPruned},
	} {
		req := wideRequest(10)
		req.Solver = cfg
		if _, err := cached.Recommend(ctx, req); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
	if m := cached.folds.Metrics(); m.Hits+m.Misses+m.Shared != 0 || m.Entries != 0 {
		t.Fatalf("fold metrics = %+v, want no lookups and no entries", m)
	}
}

// mixedRequest builds n components cycling through the compute,
// storage, network and middleware layers with one to three active
// nodes, every catalog technology in play: a heterogeneous space
// (8,100 options at n=8) whose DP keeps hundreds of leaves.
func mixedRequest(n int) Request {
	layers := []topology.Layer{topology.LayerCompute, topology.LayerStorage, topology.LayerNetwork, topology.LayerMiddleware}
	comps := make([]topology.Component, n)
	for i := range comps {
		comps[i] = topology.Component{Name: fmt.Sprintf("t%02d", i), Layer: layers[i%len(layers)], ActiveNodes: 1 + i%3}
	}
	return Request{
		Base: topology.System{Name: "mixed", Provider: catalog.ProviderSoftLayerSim, Components: comps},
		SLA:  CaseStudy().SLA,
	}
}

// progressLog records one call's progress reports.
type progressLog struct {
	mu     sync.Mutex
	evals  []int64
	spaces []int64
}

func (l *progressLog) hook(evaluated, spaceSize int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evals = append(l.evals, evaluated)
	l.spaces = append(l.spaces, spaceSize)
}

// check asserts one monotone pass over a space of the given size that
// ends exactly at it.
func (l *progressLog) check(t *testing.T, label string, space int64) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.evals) == 0 {
		t.Fatalf("%s: progress hook never fired", label)
	}
	for i := range l.evals {
		if l.spaces[i] != space {
			t.Fatalf("%s: report %d: space %d, want %d", label, i, l.spaces[i], space)
		}
		if i > 0 && l.evals[i] < l.evals[i-1] {
			t.Fatalf("%s: progress went backwards at %d: %d after %d", label, i, l.evals[i], l.evals[i-1])
		}
	}
	if final := l.evals[len(l.evals)-1]; final != space {
		t.Fatalf("%s: final progress %d, want %d", label, final, space)
	}
}

// TestFoldCacheProgress: Recommend and Pareto report one monotone pass
// ending at k^n whether their fold was built by the call (miss),
// served from the cache (hit) or shared with a concurrent build — and
// a hit replays the same count whether or not the call that folded had
// a progress hook.
func TestFoldCacheProgress(t *testing.T) {
	cached, _, _, _ := foldTestEngines(t)
	ctx := context.Background()
	withTerm := func(req Request, percent float64) Request {
		req.SLA = cost.SLA{UptimePercent: percent, Penalty: cost.Penalty{PerHour: cost.Dollars(100)}}
		return req
	}
	// call has e answer req, reporting progress to log when it is
	// non-nil.
	call := func(e *Engine, label string, req Request, pareto bool, log *progressLog) {
		t.Helper()
		pctx := ctx
		if log != nil {
			pctx = WithSearchProgress(ctx, log.hook)
		}
		var err error
		if pareto {
			_, err = e.Pareto(pctx, req)
		} else {
			_, err = e.Recommend(pctx, req)
		}
		if err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	lookups := func() int64 {
		m := cached.folds.Metrics()
		return m.Hits + m.Misses + m.Shared
	}

	// Miss, then hits, on one architecture. Its leaves report after
	// the fold has reported far more than their count.
	for i, pareto := range []bool{false, false, true} {
		var log progressLog
		call(cached, "mixed n=8", withTerm(mixedRequest(8), 97+float64(i)), pareto, &log)
		log.check(t, "mixed n=8", 8100)
	}
	if m := cached.folds.Metrics(); m.Misses != 1 || m.Hits != 2 {
		t.Fatalf("fold metrics = %+v, want 1 miss and 2 hits", m)
	}

	// A hit reports the same pass whether or not the call that folded
	// had a hook.
	var hits [2]progressLog
	for i, observed := range []bool{true, false} {
		e, _, _, _ := foldTestEngines(t)
		var miss *progressLog
		if observed {
			miss = &progressLog{}
		}
		call(e, "mixed n=7 miss", withTerm(mixedRequest(7), 97), false, miss)
		call(e, "mixed n=7 hit", withTerm(mixedRequest(7), 98), false, &hits[i])
		hits[i].check(t, "mixed n=7 hit", 4050)
		if m := e.folds.Metrics(); m.Misses != 1 || m.Hits != 1 {
			t.Fatalf("fold metrics = %+v, want 1 miss and 1 hit", m)
		}
	}
	if !reflect.DeepEqual(hits[0].evals, hits[1].evals) {
		t.Fatalf("hit after an observed fold reported %v, after an unobserved one %v", hits[0].evals, hits[1].evals)
	}

	// A shared flight: whichever call leads the fold holds it at its
	// first progress report until the other has joined.
	before := lookups()
	shared := cached.folds.Metrics().Shared
	deadline := time.Now().Add(10 * time.Second)
	var logs [2]progressLog
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hold := func(evaluated, spaceSize int64) {
				for cached.folds.Metrics().Shared == shared && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				logs[i].hook(evaluated, spaceSize)
			}
			pctx := WithSearchProgress(ctx, hold)
			var err error
			if req := withTerm(wideRequest(12), 97+float64(i)); i == 0 {
				_, err = cached.Recommend(pctx, req)
			} else {
				_, err = cached.Pareto(pctx, req)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := cached.folds.Metrics(); m.Shared != shared+1 || lookups() != before+2 {
		t.Fatalf("fold metrics = %+v, want one shared flight", m)
	}
	logs[0].check(t, "shared recommend", 1<<12)
	logs[1].check(t, "shared pareto", 1<<12)
}
