package optimize

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// The budget, cancellation, progress and certificate contract of the
// frontier strategy: a run that a budget or the state cap stops early
// answers with Greedy's incumbent certified against the root
// relaxation bound; a run that completes is exact.

// randomWideProblem is randomProblem stretched to up to 12 components
// (arity capped so the exhaustive oracle stays fast enough to run
// hundreds of trials).
func randomWideProblem(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(11)
	comps := make([]ComponentChoices, n)
	for i := range comps {
		k := 2
		if n <= 8 {
			k += rng.Intn(2)
		}
		variants := make([]Variant, k)
		down := 0.002 + rng.Float64()*0.03
		variants[0] = Variant{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: 1, Tolerated: 0, NodeDown: down},
		}
		prevCost := cost.Money(0)
		for v := 1; v < k; v++ {
			prevCost += cost.Dollars(float64(1 + rng.Intn(2000)))
			variants[v] = Variant{
				Label: "ha",
				Cluster: availability.Cluster{
					Name: "c", Nodes: 1 + v, Tolerated: v, NodeDown: down,
					FailuresPerYear: rng.Float64() * 8,
					Failover:        time.Duration(rng.Intn(10)) * time.Minute,
				},
				MonthlyCost: prevCost,
			}
		}
		comps[i] = ComponentChoices{Name: "c", Variants: variants}
	}
	return &Problem{
		Components: comps,
		SLA: cost.SLA{
			UptimePercent: 88 + rng.Float64()*11.9,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(float64(1 + rng.Intn(500)))},
		},
	}
}

// starvedBudgets are the budgets the soundness sweep runs each trial
// under: the certificate must stay sound no matter how early the DP
// stopped.
func starvedBudgets() []Budget {
	return []Budget{
		{MaxEvaluations: 1},
		{MaxEvaluations: 3},
		{MaxEvaluations: 50},
		{Wall: time.Nanosecond},
	}
}

// TestAnytimeGapSoundnessVsOracle: on randomized instances up to n=12,
// a budget-stopped frontier run's bound never exceeds the true optimum
// (from the from-scratch exhaustive oracle), its incumbent is a real
// candidate priced correctly and never better than the optimum, the
// reported gap matches its definition, and a claimed Optimal really is
// the optimum. Runs the budget did not stop are exact.
func TestAnytimeGapSoundnessVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 150; trial++ {
		p := randomWideProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		opt := ref.Best.TCO.Total()
		for _, b := range starvedBudgets() {
			res, err := SolveConfig(context.Background(), p, SolverConfig{Strategy: StrategyFrontier, Budget: b})
			if err != nil {
				t.Fatalf("trial %d: %+v: %v", trial, b, err)
			}
			if res.Strategy != StrategyFrontier {
				t.Fatalf("trial %d: stamped strategy %q", trial, res.Strategy)
			}
			inc := res.Best.TCO.Total()
			if !res.Approximate {
				if res.BudgetExhausted || inc != opt || !equalAssignments(res.Best.Assignment, ref.Best.Assignment) {
					t.Fatalf("trial %d: %+v: uncertified run is not the exact optimum: %+v", trial, b, res)
				}
				continue
			}
			if !res.BudgetExhausted {
				t.Fatalf("trial %d: %+v: approximate run not marked budget-exhausted", trial, b)
			}
			if res.Bound > opt {
				t.Fatalf("trial %d: %+v: bound %v exceeds true optimum %v", trial, b, res.Bound, opt)
			}
			if inc < opt {
				t.Fatalf("trial %d: incumbent %v beats the optimum %v", trial, inc, opt)
			}
			check, err := p.Evaluate(res.Best.Assignment)
			if err != nil {
				t.Fatalf("trial %d: incumbent does not evaluate: %v", trial, err)
			}
			if check.TCO != res.Best.TCO || check.Uptime != res.Best.Uptime {
				t.Fatalf("trial %d: incumbent mispriced: %+v vs %+v", trial, res.Best.TCO, check.TCO)
			}
			switch {
			case math.IsInf(res.Gap, 1):
				if res.Bound != 0 || inc == 0 {
					t.Fatalf("trial %d: infinite gap with bound %v incumbent %v", trial, res.Bound, inc)
				}
			case res.Bound > 0:
				want := float64(inc-res.Bound) / float64(res.Bound)
				if math.Abs(res.Gap-want) > 1e-12 {
					t.Fatalf("trial %d: gap %v, want %v", trial, res.Gap, want)
				}
			default:
				if res.Gap != 0 || inc != 0 {
					t.Fatalf("trial %d: zero bound with gap %v incumbent %v", trial, res.Gap, inc)
				}
			}
			if res.Optimal && inc != opt {
				t.Fatalf("trial %d: claims optimal at %v but the optimum is %v", trial, inc, opt)
			}
			if res.NoPenaltyFound && !res.BestNoPenalty.MeetsSLA(p.SLA) {
				t.Fatalf("trial %d: no-penalty incumbent misses the SLA", trial)
			}
		}
	}
}

// TestBoundedCertificateOnCompletion: the retired bounded name runs
// frontier, so a run no budget stopped needs no certificate at all —
// it is the exact optimum, reported uncertified.
func TestBoundedCertificateOnCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		p := randomWideProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(context.Background(), p, StrategyBounded)
		if err != nil {
			t.Fatal(err)
		}
		if res.Approximate || res.BudgetExhausted || res.Bound != 0 || res.Gap != 0 {
			t.Fatalf("trial %d: completed run carries a certificate: %+v", trial, res)
		}
		if res.Best.TCO.Total() != ref.Best.TCO.Total() {
			t.Fatalf("trial %d: incumbent %v, optimum %v", trial, res.Best.TCO.Total(), ref.Best.TCO.Total())
		}
	}
}

// TestAnytimeCompleteRunsAreExact: every retired anytime name, run
// without a budget, returns exhaustive's Best and BestNoPenalty
// assignments and echoes frontier.
func TestAnytimeCompleteRunsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng)
		ref, err := p.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []string{StrategyBeam, StrategyLDS, StrategyBounded} {
			res, err := Solve(context.Background(), p, strat)
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != StrategyFrontier || res.Approximate {
				t.Fatalf("trial %d: %s ran %q (approximate %v)", trial, strat, res.Strategy, res.Approximate)
			}
			if !equalAssignments(res.Best.Assignment, ref.Best.Assignment) {
				t.Fatalf("trial %d: %s found %v, optimum %v", trial, strat, res.Best.Assignment, ref.Best.Assignment)
			}
			if ref.NoPenaltyFound && !equalAssignments(res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment) {
				t.Fatalf("trial %d: %s min-risk %v, exhaustive %v", trial, strat, res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment)
			}
		}
	}
}

// TestAnytimeBudgets exercises both budget kinds on the n=19 bench
// shape: a one-evaluation cap and a zero-headroom wall budget each stop
// the DP, and the answer is Greedy's incumbent with a sound
// certificate.
func TestAnytimeBudgets(t *testing.T) {
	p := BenchProblem(19, BenchSLAPercent)
	greedy, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Budget{{MaxEvaluations: 1}, {Wall: time.Nanosecond}} {
		start := time.Now()
		res, err := SolveConfig(context.Background(), p, SolverConfig{Strategy: StrategyFrontier, Budget: b})
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		if !res.BudgetExhausted || !res.Approximate {
			t.Fatalf("%+v: budget not reported exhausted: %+v", b, res)
		}
		if !equalAssignments(res.Best.Assignment, greedy.Best.Assignment) {
			t.Fatalf("%+v: incumbent %v, greedy %v", b, res.Best.Assignment, greedy.Best.Assignment)
		}
		if res.Bound <= 0 || res.Bound > res.Best.TCO.Total() {
			t.Fatalf("%+v: bound %v against incumbent %v", b, res.Bound, res.Best.TCO.Total())
		}
		if res.Evaluated+res.Skipped != p.SpaceSize() {
			t.Fatalf("%+v: accounting %d+%d, space %d", b, res.Evaluated, res.Skipped, p.SpaceSize())
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%+v: budgeted run took %v", b, elapsed)
		}
	}

	// On small spaces Greedy re-prices more assignments than exist; the
	// fallback must still count each priced assignment once, in both
	// tie orders.
	rng := rand.New(rand.NewSource(23))
	cfg := SolverConfig{Strategy: StrategyFrontier, Budget: Budget{MaxEvaluations: 1}}
	for trial := 0; trial < 500; trial++ {
		p := randomProblem(rng)
		for _, solve := range []func(context.Context, *Problem, SolverConfig) (Result, error){SolveConfig, SolvePresentation} {
			res, err := solve(context.Background(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if space := p.SpaceSize(); res.Evaluated > space || res.Evaluated+res.Skipped != space {
				t.Fatalf("trial %d: evaluated %d + skipped %d, space %d", trial, res.Evaluated, res.Skipped, space)
			}
		}
	}
}

// TestFrontierStateCap: a level that outgrows the state cap stops the
// DP like a budget does, but the certificate says no budget fired —
// and ParetoContext, which has no incumbent to fall back on, refuses.
func TestFrontierStateCap(t *testing.T) {
	defer func(was int) { maxFrontierStates = was }(maxFrontierStates)
	maxFrontierStates = 2
	p := BenchProblem(12, BenchSLAPercent)
	res, err := Solve(context.Background(), p, StrategyFrontier)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approximate || res.BudgetExhausted {
		t.Fatalf("capped run: approximate %v, budget exhausted %v", res.Approximate, res.BudgetExhausted)
	}
	if _, err := p.ParetoContext(context.Background()); !errors.Is(err, ErrFrontierStateCap) {
		t.Fatalf("capped ParetoContext = %v, want ErrFrontierStateCap", err)
	}

	// An exact strategy named beside a capped DP still answers exactly:
	// the answer falls back to the full presentation-order stream.
	ref, err := SolvePresentation(context.Background(), p, SolverConfig{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := SolvePresentation(context.Background(), p, SolverConfig{Strategy: StrategyPruned})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Approximate || !equalAssignments(pruned.Best.Assignment, ref.Best.Assignment) ||
		!equalAssignments(pruned.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment) {
		t.Fatalf("capped pruned answer %v/%v (approximate %v), stream %v/%v",
			pruned.Best.Assignment, pruned.BestNoPenalty.Assignment, pruned.Approximate,
			ref.Best.Assignment, ref.BestNoPenalty.Assignment)
	}
}

// TestAnytimeCancellation: a cancelled context aborts frontier and
// every retired name with the context's error.
func TestAnytimeCancellation(t *testing.T) {
	p := BenchProblem(19, BenchSLAPercent)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []string{StrategyFrontier, StrategyBeam, StrategyLDS, StrategyBounded} {
		if _, err := SolveConfig(ctx, p, SolverConfig{Strategy: strat}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled context returned %v", strat, err)
		}
	}
	if _, err := p.ParetoContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParetoContext on a cancelled context returned %v", err)
	}
}

// TestAnytimeProgressAndStrategyHooks: frontier reports through the
// same context hooks as the enumerating strategies — a monotone count
// over the k^n space that ends at the space size — with or without a
// budget stopping it, and the strategy hook hears frontier even when a
// retired name asked for it.
func TestAnytimeProgressAndStrategyHooks(t *testing.T) {
	p := BenchProblem(12, BenchSLAPercent)
	space := int64(p.SpaceSize())
	for _, cfg := range []SolverConfig{
		{Strategy: StrategyFrontier},
		{Strategy: StrategyBeam},
		{Strategy: StrategyFrontier, Budget: Budget{MaxEvaluations: 40}},
	} {
		var reports []int64
		var heard string
		ctx := WithProgress(context.Background(), func(evaluated, s int64) {
			if s != space {
				t.Fatalf("%+v: progress space %d, want %d", cfg, s, space)
			}
			reports = append(reports, evaluated)
		})
		ctx = WithStrategyReport(ctx, func(s string) { heard = s })
		if _, err := SolveConfig(ctx, p, cfg); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(reports) == 0 || reports[len(reports)-1] != space {
			t.Fatalf("%+v: progress %v, want it to end at %d", cfg, reports, space)
		}
		for i := 1; i < len(reports); i++ {
			if reports[i] < reports[i-1] {
				t.Fatalf("%+v: progress went backwards: %v", cfg, reports)
			}
		}
		if heard != StrategyFrontier {
			t.Fatalf("%+v: strategy hook heard %q", cfg, heard)
		}
	}
}

// TestSolverConfigValidation covers the config surface: unknown
// strategies and negative budgets are refused, retired names validate,
// and an enumerating strategy refuses an evaluation cap it cannot
// honor.
func TestSolverConfigValidation(t *testing.T) {
	bad := []struct {
		cfg  SolverConfig
		want string
	}{
		{SolverConfig{Strategy: "no-such"}, "unknown strategy"},
		{SolverConfig{Budget: Budget{Wall: -time.Second}}, "negative wall"},
		{SolverConfig{Budget: Budget{MaxEvaluations: -1}}, "negative evaluation"},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Validate(%+v) = %v, want %q", tc.cfg, err, tc.want)
		}
	}
	good := []SolverConfig{
		{},
		{Strategy: StrategyFrontier, Budget: Budget{Wall: time.Second, MaxEvaluations: 10}},
		{Strategy: StrategyBeam},
		{Strategy: StrategyParallelPruned},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}

	p := sampleProblem()
	for _, strat := range []string{StrategyPruned, StrategyExhaustive} {
		if _, err := SolveConfig(context.Background(), p, SolverConfig{
			Strategy: strat,
			Budget:   Budget{MaxEvaluations: 10},
		}); err == nil || !strings.Contains(err.Error(), "cannot honor max_evaluations") {
			t.Fatalf("%s with an evaluation cap = %v, want refusal", strat, err)
		}
	}
}

// TestResolveConfigRouting pins auto: frontier on every space, with or
// without a budget; retired names resolve to frontier and explicit
// names echo.
func TestResolveConfigRouting(t *testing.T) {
	cases := []struct {
		cfg  SolverConfig
		want string
	}{
		{SolverConfig{}, StrategyFrontier},
		{SolverConfig{Strategy: StrategyAuto, Budget: Budget{Wall: time.Second}}, StrategyFrontier},
		{SolverConfig{Budget: Budget{MaxEvaluations: 1 << 20}}, StrategyFrontier},
		{SolverConfig{Strategy: StrategyPruned}, StrategyPruned},
		{SolverConfig{Strategy: StrategyExhaustive}, StrategyExhaustive},
		{SolverConfig{Strategy: StrategyBeam}, StrategyFrontier},
		{SolverConfig{Strategy: StrategyBranchAndBound}, StrategyFrontier},
	}
	for _, tc := range cases {
		got, err := resolveConfig(tc.cfg)
		if err != nil {
			t.Fatalf("resolveConfig(%+v): %v", tc.cfg, err)
		}
		if got != tc.want {
			t.Fatalf("resolveConfig(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
	if _, err := resolveConfig(SolverConfig{Strategy: "nope"}); err == nil {
		t.Fatal("resolveConfig accepted an unknown strategy")
	}
}

// TestAnytimeN30WithinBudget is the wide-shape gate: under the 500ms
// wall budget the n=30 SLA-dense shape is solved exactly — uncertified,
// gap 0, the budget never firing.
func TestAnytimeN30WithinBudget(t *testing.T) {
	p := BenchProblem(BenchWideN, BenchSLAWidePercent)
	res, err := SolveConfig(context.Background(), p, SolverConfig{
		Strategy: StrategyFrontier,
		Budget:   Budget{Wall: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Approximate || res.BudgetExhausted || res.Gap != 0 {
		t.Fatalf("n=30 within budget: approximate %v, exhausted %v, gap %v", res.Approximate, res.BudgetExhausted, res.Gap)
	}
}

// TestRootLowerBoundSoundness pins the relaxation bound alone against
// the oracle, independent of any search.
func TestRootLowerBoundSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		p := randomWideProblem(rng)
		ref, err := p.ExhaustiveScratch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if bound := p.rootLowerBound(); bound > ref.Best.TCO.Total() {
			t.Fatalf("trial %d: root bound %v exceeds optimum %v", trial, bound, ref.Best.TCO.Total())
		}
	}
}
