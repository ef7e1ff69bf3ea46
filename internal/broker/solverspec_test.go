package broker

import (
	"context"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
)

// TestSolverSpecAliasesShareCacheAddress is the back-compat contract
// of the config surface: the deprecated flat "strategy" spelling and
// the nested solver spec naming the same strategy normalize to one
// form and hash to the same cache key — so a caller migrating
// spellings keeps hitting its own cached results — while setting a
// budget moves the address.
func TestSolverSpecAliasesShareCacheAddress(t *testing.T) {
	e := newTestEngine(t)

	flat := CaseStudy()
	flat.Strategy = optimize.StrategyFrontier

	nested := CaseStudy()
	nested.Solver.Strategy = optimize.StrategyFrontier

	both := CaseStudy()
	both.Strategy = optimize.StrategyFrontier
	both.Solver.Strategy = optimize.StrategyFrontier

	flatKey := e.cacheKey(e.normalize(flat))
	for name, req := range map[string]Request{"nested": nested, "both": both} {
		if key := e.cacheKey(e.normalize(req)); key != flatKey {
			t.Fatalf("%s spelling hashed to %s, flat spelling to %s — aliases must share one address", name, key, flatKey)
		}
	}

	// A zero nested spec must also leave the default-strategy address
	// untouched (the key tail is only appended when a budget is set).
	plain := e.cacheKey(e.normalize(CaseStudy()))
	zeroSpec := CaseStudy()
	zeroSpec.Solver = optimize.SolverConfig{}
	if key := e.cacheKey(e.normalize(zeroSpec)); key != plain {
		t.Fatal("zero nested spec moved the cache address of the default request")
	}

	// A budget is semantic: a budgeted run may return a different
	// (certified) result, so it must not alias the unbudgeted entry.
	budgeted := CaseStudy()
	budgeted.Solver.Strategy = optimize.StrategyFrontier
	budgeted.Solver.Budget.MaxEvaluations = 4
	if key := e.cacheKey(e.normalize(budgeted)); key == flatKey {
		t.Fatal("budgeted request aliases the unbudgeted cache entry")
	}
}

// TestSolverSpecContradictions: the flat alias and the nested spec
// disagreeing on the strategy is rejected, as are invalid budgets,
// while a retired strategy name still validates.
func TestSolverSpecContradictions(t *testing.T) {
	req := CaseStudy()
	req.Strategy = optimize.StrategyPruned
	req.Solver.Strategy = optimize.StrategyFrontier
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("contradicting spellings validated: %v", err)
	}

	// The rejection must survive the engine's normalize pass: Recommend
	// canonicalizes before validating, and canonicalization must not
	// silently pick a winner.
	e := newTestEngine(t)
	if _, err := e.Recommend(context.Background(), req); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("engine accepted contradicting spellings: %v", err)
	}

	agree := CaseStudy()
	agree.Strategy = optimize.StrategyFrontier
	agree.Solver.Strategy = optimize.StrategyFrontier
	if err := agree.Validate(); err != nil {
		t.Fatalf("agreeing spellings rejected: %v", err)
	}

	retired := CaseStudy()
	retired.Solver.Strategy = optimize.StrategyBeam
	if err := retired.Validate(); err != nil {
		t.Fatalf("retired strategy name rejected: %v", err)
	}

	neg := CaseStudy()
	neg.Solver.Budget.Wall = -time.Second
	if err := neg.Validate(); err == nil {
		t.Fatal("negative wall budget validated")
	}
}

// TestRecommendApproximateStats runs the full brokerage flow on
// frontier and checks that only a budget-stopped run carries a
// certificate in SearchStats — exact runs, the retired names included,
// keep the fields zero, so their wire encoding is unchanged.
func TestRecommendApproximateStats(t *testing.T) {
	reg := obs.NewRegistry()
	cat := newTestEngine(t).catalog
	e, err := New(cat, CatalogParams{Catalog: cat}, WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}

	exact, err := e.Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if exact.Search.Approximate || exact.Search.Bound != 0 || exact.Search.Gap != 0 ||
		exact.Search.Optimal || exact.Search.BudgetExhausted {
		t.Fatalf("exact run leaked certificate fields: %+v", exact.Search)
	}

	for _, strat := range []string{optimize.StrategyFrontier, optimize.StrategyBeam, optimize.StrategyLDS, optimize.StrategyBounded} {
		req := CaseStudy()
		req.Solver.Strategy = strat
		rec, err := e.Recommend(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if rec.Search.Strategy != optimize.StrategyFrontier || rec.Search.Approximate {
			t.Fatalf("%s: search stats %+v, want an exact frontier run", strat, rec.Search)
		}
		if rec.BestOption != exact.BestOption || rec.MinRiskOption != exact.MinRiskOption {
			t.Fatalf("%s: options %d/%d, exact %d/%d", strat, rec.BestOption, rec.MinRiskOption, exact.BestOption, exact.MinRiskOption)
		}
	}

	req := CaseStudy()
	req.Solver = optimize.SolverConfig{Strategy: optimize.StrategyFrontier, Budget: optimize.Budget{MaxEvaluations: 1}}
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Search.Approximate || !rec.Search.BudgetExhausted || rec.Search.Gap < 0 {
		t.Fatalf("budget-stopped run: %+v", rec.Search)
	}
	// The case study's greedy incumbent is the optimum, so the
	// certificate must not claim anything the option cards contradict.
	if rec.Search.Bound > rec.Best().TCO {
		t.Fatalf("bound %v above the best card's TCO %v", rec.Search.Bound, rec.Best().TCO)
	}

	// The certificate reaches the metrics registry: one labeled
	// solver_gap gauge for frontier, and no gap series for the
	// enumerating strategies.
	snap := reg.Snapshot()
	fam, ok := snap.Family("solver_gap")
	if !ok {
		t.Fatal("no solver_gap family after frontier runs")
	}
	if got := len(fam.Series); got != 1 {
		t.Fatalf("solver_gap has %d series, want 1 (frontier): %+v", got, fam.Series)
	}
	if _, ok := snap.Family("solver_budget_exhausted_total"); !ok {
		t.Fatal("no solver_budget_exhausted_total family after a budget-stopped run")
	}
}

// TestRecommendBudgets: a budget riding on frontier (here through a
// retired name) is honored end-to-end (the stats report exhaustion),
// and an evaluation cap on an explicit enumerating strategy is
// refused.
func TestRecommendBudgets(t *testing.T) {
	e := newTestEngine(t)

	req := CaseStudy()
	req.Solver.Strategy = optimize.StrategyBeam
	req.Solver.Budget.MaxEvaluations = 1
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Search.BudgetExhausted || rec.Search.Strategy != optimize.StrategyFrontier {
		t.Fatalf("one-evaluation budget not reported exhausted: %+v", rec.Search)
	}
	if rec.Search.Evaluated < 1 {
		t.Fatalf("budget-stopped run reports no incumbent evaluations: %+v", rec.Search)
	}
	// The budget-stopped answer is Greedy's incumbent, which on the
	// case study is the optimum.
	if rec.BestOption != 3 || rec.MinRiskOption != 5 || rec.AsIsOption != 8 {
		t.Fatalf("budget-stopped answer #%d/#%d/#%d, want #3/#5/#8", rec.BestOption, rec.MinRiskOption, rec.AsIsOption)
	}

	capped := CaseStudy()
	capped.Strategy = optimize.StrategyExhaustive
	capped.Solver.Budget.MaxEvaluations = 2
	if _, err := e.Recommend(context.Background(), capped); err == nil ||
		!strings.Contains(err.Error(), "cannot honor max_evaluations") {
		t.Fatalf("evaluation cap on exhaustive = %v, want refusal", err)
	}

	// A wall budget on an exhaustive request is a deadline on the
	// stream, which still answers with full statistics.
	walled := CaseStudy()
	walled.Strategy = optimize.StrategyExhaustive
	walled.Solver.Budget.Wall = time.Minute
	rec, err = e.Recommend(context.Background(), walled)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Search.Strategy != optimize.StrategyExhaustive || rec.Search.Evaluated != 8 {
		t.Fatalf("walled exhaustive run: %+v", rec.Search)
	}
}
