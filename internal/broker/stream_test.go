package broker

import (
	"context"
	"reflect"
	"testing"

	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
)

// TestParetoMatchesParetoCards pins the frontier DP's cards against
// the reference: Engine.Pareto must return exactly
// ParetoCards(rec.Cards) — same options, same order, same numbers —
// without ever enumerating the space. The cases cover the case study
// under SLA shifts (which move the dominating cards), every provider
// on both the restricted and the open catalog, the five-tier scenario,
// and the tie-heavy symmetric shapes up to n=16. (n=18 is pinned
// against a streaming reference in the optimize package: its full
// card list alone would hold ~0.7 GB under the race detector.)
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
		rec, err := e.Recommend(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d: Recommend: %v", i, err)
		}
		want := ParetoCards(rec.Cards)
		rec = nil // the full card list is only the reference
		got, err := e.Pareto(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d: Pareto: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d: frontier cards diverge:\n  frontier  %+v\n  reference %+v", i, got, want)
		}
	}
}

// TestRecommendFusedExhaustiveMatchesTwoPass compares the fused
// single-pass shape (strategy exhaustive: the pricing stream is the
// search) against the two-pass shape (pruned): identical cards and
// summary, with the fused stats pinned to the full space.
func TestRecommendFusedExhaustiveMatchesTwoPass(t *testing.T) {
	e := newTestEngine(t)

	fusedReq := CaseStudy()
	fusedReq.Strategy = optimize.StrategyExhaustive
	fused, err := e.Recommend(context.Background(), fusedReq)
	if err != nil {
		t.Fatalf("fused Recommend: %v", err)
	}

	twoPassReq := CaseStudy()
	twoPassReq.Strategy = optimize.StrategyPruned
	twoPass, err := e.Recommend(context.Background(), twoPassReq)
	if err != nil {
		t.Fatalf("two-pass Recommend: %v", err)
	}

	if fused.Search.Strategy != optimize.StrategyExhaustive {
		t.Fatalf("fused strategy = %q, want exhaustive", fused.Search.Strategy)
	}
	if fused.Search.Evaluated != fused.Search.SpaceSize || fused.Search.Skipped != 0 {
		t.Fatalf("fused stats = %d evaluated / %d skipped, want %d / 0",
			fused.Search.Evaluated, fused.Search.Skipped, fused.Search.SpaceSize)
	}
	if len(fused.Cards) != len(twoPass.Cards) {
		t.Fatalf("fused %d cards, two-pass %d", len(fused.Cards), len(twoPass.Cards))
	}
	for i := range fused.Cards {
		f, p := fused.Cards[i], twoPass.Cards[i]
		if f.Option != p.Option || f.Label() != p.Label() || f.HACost != p.HACost ||
			f.Uptime != p.Uptime || f.Penalty != p.Penalty || f.TCO != p.TCO || f.MeetsSLA != p.MeetsSLA {
			t.Fatalf("card %d diverges between fused and two-pass:\n  fused    %+v\n  two-pass %+v", i, f, p)
		}
	}
	if fused.BestOption != twoPass.BestOption || fused.MinRiskOption != twoPass.MinRiskOption ||
		fused.SavingsFraction != twoPass.SavingsFraction {
		t.Fatalf("summary diverges: fused %+v, two-pass %+v", fused, twoPass)
	}

	// The fused pass still reports the resolved strategy to hooks.
	var reported string
	ctx := WithStrategyReport(context.Background(), func(s string) { reported = s })
	if _, err := e.Recommend(ctx, fusedReq); err != nil {
		t.Fatal(err)
	}
	if reported != optimize.StrategyExhaustive {
		t.Fatalf("fused pass reported strategy %q, want exhaustive", reported)
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
	req.Pricing = PricingSequential

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
			t.Fatalf("report %d: space = %d, want 8 (single pricing pass)", i, s)
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
