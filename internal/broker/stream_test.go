package broker

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
)

// TestParetoMatchesParetoCards pins the frontier DP's cards against
// the reference: Engine.Pareto must return exactly ParetoCards over
// the full Engine.Cards listing — same options, same order, same
// numbers — without ever enumerating the space. The cases cover the
// case study under SLA shifts (which move the dominating cards), every
// provider on both the restricted and the open catalog, the five-tier
// scenario, and the tie-heavy symmetric shapes up to n=16. (n=18 is
// pinned against a streaming reference in the optimize package: its
// full listing alone would hold ~0.7 GB under the race detector.)
func TestParetoMatchesParetoCards(t *testing.T) {
	e := newTestEngine(t)
	reqs := []Request{CaseStudy()}
	for _, sla := range []float64{90, 96, 98, 99.9} {
		r := CaseStudy()
		r.SLA = cost.SLA{UptimePercent: sla, Penalty: cost.Penalty{PerHour: cost.Dollars(150)}}
		reqs = append(reqs, r)
	}
	for _, provider := range []string{catalog.ProviderSoftLayerSim, catalog.ProviderNimbus, catalog.ProviderStratus} {
		restricted := CaseStudy()
		restricted.Base.Provider = provider
		open := restricted
		open.AllowedTechs = nil
		reqs = append(reqs, restricted, open, FutureWork(provider))
	}
	for n := 2; n <= 16; n += 2 {
		reqs = append(reqs, wideRequest(n))
	}

	for i, req := range reqs {
		want := ParetoCards(allCards(t, e, req))
		got, err := e.Pareto(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d: Pareto: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d: frontier cards diverge:\n  frontier  %+v\n  reference %+v", i, got, want)
		}
	}
}

// TestRecommendExhaustiveMatchesPruned pins the three search paths
// behind Recommend to one answer: exhaustive (the presentation-order
// stream), pruned (frontier beside the level search) and auto
// (frontier) give identical cards and summary on the case study and
// its SLA shifts, each with its own statistics, and every strategy
// hook hears the strategy that ran.
func TestRecommendExhaustiveMatchesPruned(t *testing.T) {
	e := newTestEngine(t)
	for _, sla := range []float64{90, 96, 98, 99.9} {
		req := CaseStudy()
		req.SLA.UptimePercent = sla
		var recs []*Recommendation
		for _, strategy := range []string{optimize.StrategyExhaustive, optimize.StrategyPruned, optimize.StrategyAuto} {
			r := req
			r.Strategy = strategy
			var reported string
			ctx := WithStrategyReport(context.Background(), func(s string) { reported = s })
			rec, err := e.Recommend(ctx, r)
			if err != nil {
				t.Fatalf("sla %v, %s: %v", sla, strategy, err)
			}
			if reported != rec.Search.Strategy {
				t.Fatalf("sla %v, %s: hook heard %q, stats say %q", sla, strategy, reported, rec.Search.Strategy)
			}
			recs = append(recs, rec)
		}
		ex, pr, auto := recs[0], recs[1], recs[2]
		if ex.Search.Strategy != optimize.StrategyExhaustive || ex.Search.Evaluated != 8 || ex.Search.Skipped != 0 {
			t.Fatalf("sla %v: exhaustive stats %+v, want 8 evaluated of 8", sla, ex.Search)
		}
		if pr.Search.Strategy != optimize.StrategyPruned || auto.Search.Strategy != optimize.StrategyFrontier {
			t.Fatalf("sla %v: strategies %q and %q, want pruned and frontier", sla, pr.Search.Strategy, auto.Search.Strategy)
		}
		for _, other := range []*Recommendation{pr, auto} {
			a, b := *ex, *other
			a.Search, b.Search = SearchStats{}, SearchStats{}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("sla %v: %s answer diverges from exhaustive:\n  %+v\n  %+v", sla, other.Search.Strategy, b, a)
			}
		}
	}
}

// TestParetoRejectsInexpressibleAsIs pins parity with Recommend on
// the as-is plan check: Pareto never compares against
// the incumbent, but a plan naming an unknown technology is still a
// caller mistake that must error, not be silently ignored.
func TestParetoRejectsInexpressibleAsIs(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.AsIs = Plan{"storage": "raid-17"}
	if _, err := e.Pareto(context.Background(), req); err == nil {
		t.Fatal("Pareto with an inexpressible as-is plan should fail like Recommend does")
	}
}

// TestParetoProgressSinglePass: Pareto reports progress over the
// single k^n space, monotonically, to completion.
func TestParetoProgressSinglePass(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()

	var evals, spaces []int64
	ctx := WithSearchProgress(context.Background(), func(evaluated, spaceSize int64) {
		evals = append(evals, evaluated)
		spaces = append(spaces, spaceSize)
	})
	if _, err := e.Pareto(ctx, req); err != nil {
		t.Fatal(err)
	}
	if len(evals) == 0 {
		t.Fatal("progress hook never fired")
	}
	for i, s := range spaces {
		if s != 8 {
			t.Fatalf("report %d: space = %d, want 8 (one pass)", i, s)
		}
	}
	for i := 1; i < len(evals); i++ {
		if evals[i] < evals[i-1] {
			t.Fatalf("progress went backwards at %d", i)
		}
	}
	if final := evals[len(evals)-1]; final != 8 {
		t.Fatalf("final progress = %d, want 8", final)
	}
}

// TestRecommendProgressSinglePass: whatever the strategy, Recommend
// reports progress over the single k^n space, monotonically, ending
// exactly at k^n.
func TestRecommendProgressSinglePass(t *testing.T) {
	e := newTestEngine(t)
	for _, strategy := range []string{optimize.StrategyExhaustive, optimize.StrategyPruned, optimize.StrategyFrontier} {
		req := wideRequest(10)
		req.Strategy = strategy
		var mu sync.Mutex
		var evals, spaces []int64
		ctx := WithSearchProgress(context.Background(), func(evaluated, spaceSize int64) {
			mu.Lock()
			defer mu.Unlock()
			evals = append(evals, evaluated)
			spaces = append(spaces, spaceSize)
		})
		if _, err := e.Recommend(ctx, req); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if len(evals) == 0 {
			t.Fatalf("%s: progress hook never fired", strategy)
		}
		for i, s := range spaces {
			if s != 1<<10 {
				t.Fatalf("%s: report %d: space = %d, want %d", strategy, i, s, 1<<10)
			}
		}
		for i := 1; i < len(evals); i++ {
			if evals[i] < evals[i-1] {
				t.Fatalf("%s: progress went backwards at %d: %d after %d", strategy, i, evals[i], evals[i-1])
			}
		}
		if final := evals[len(evals)-1]; final != 1<<10 {
			t.Fatalf("%s: final progress = %d, want %d", strategy, final, 1<<10)
		}
	}
}
