package optimize

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// heterogeneousProblem builds n broker-shaped components: 1–3 active
// nodes, a no-HA baseline plus one or two HA variants with 1–2
// standbys and a 5–300 s failover, $50–650 per variant. Arity is held
// down so the exhaustive oracle stays within 2^15 candidates.
func heterogeneousProblem(rng *rand.Rand, n int) *Problem {
	comps := make([]ComponentChoices, n)
	space := 1
	for i := range comps {
		active := 1 + rng.Intn(3)
		down := 0.002 + rng.Float64()*0.03
		perYear := rng.Float64() * 8
		variants := []Variant{{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: active, NodeDown: down, FailuresPerYear: perYear},
		}}
		k := 2
		if space*3*(1<<(n-i-1)) <= 1<<15 && rng.Intn(2) == 0 {
			k = 3
		}
		for v := 1; v < k; v++ {
			standby := 1 + rng.Intn(2)
			variants = append(variants, Variant{
				Label: "ha",
				Cluster: availability.Cluster{
					Name: "c", Nodes: active + standby, Tolerated: standby, NodeDown: down,
					FailuresPerYear: perYear, Failover: time.Duration(5+rng.Intn(296)) * time.Second,
				},
				MonthlyCost: cost.Dollars(float64(50 + rng.Intn(601))),
			})
		}
		space *= k
		comps[i] = ComponentChoices{Name: "c", Variants: variants}
	}
	return &Problem{
		Components: comps,
		SLA:        cost.SLA{UptimePercent: 97 + rng.Float64()*2.9, Penalty: cost.Penalty{PerHour: cost.Dollars(float64(50 + rng.Intn(400)))}},
	}
}

// assertFrontierExact pins a frontier result to the exhaustive
// reference: the same Best and BestNoPenalty assignments (not just
// the same TCO), priced bit-identically, an uncertified result, and
// accounting that covers the space.
func assertFrontierExact(t *testing.T, label string, p *Problem) {
	t.Helper()
	ref, err := p.ExhaustiveContext(context.Background())
	if err != nil {
		t.Fatalf("%s: exhaustive: %v", label, err)
	}
	got, err := Solve(context.Background(), p, StrategyFrontier)
	if err != nil {
		t.Fatalf("%s: frontier: %v", label, err)
	}
	if got.Strategy != StrategyFrontier || got.Approximate {
		t.Fatalf("%s: strategy %q approximate %v, want an exact frontier run", label, got.Strategy, got.Approximate)
	}
	sameCandidate := func(what string, g, w Candidate) {
		if !equalAssignments(g.Assignment, w.Assignment) || g.Uptime != w.Uptime || g.TCO != w.TCO {
			t.Fatalf("%s: %s %v (uptime %v, tco %v), exhaustive %v (uptime %v, tco %v)",
				label, what, g.Assignment, g.Uptime, g.TCO, w.Assignment, w.Uptime, w.TCO)
		}
	}
	sameCandidate("best", got.Best, ref.Best)
	if got.NoPenaltyFound != ref.NoPenaltyFound {
		t.Fatalf("%s: NoPenaltyFound %v, exhaustive %v", label, got.NoPenaltyFound, ref.NoPenaltyFound)
	}
	if ref.NoPenaltyFound {
		sameCandidate("min-risk", got.BestNoPenalty, ref.BestNoPenalty)
	}
	if got.Evaluated < 1 || got.Evaluated+got.Skipped != p.SpaceSize() {
		t.Fatalf("%s: accounting %d evaluated + %d skipped, space %d", label, got.Evaluated, got.Skipped, p.SpaceSize())
	}
}

func TestFrontierMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 3000; trial++ {
		assertFrontierExact(t, fmt.Sprintf("random trial %d", trial), randomProblem(rng))
	}
}

func TestFrontierMatchesExhaustiveHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(6121))
	for trial := 0; trial < 200; trial++ {
		assertFrontierExact(t, fmt.Sprintf("heterogeneous trial %d", trial), heterogeneousProblem(rng, 6+rng.Intn(7)))
	}
}

// TestFrontierMatchesExhaustiveSymmetric covers the tie-heavy shapes:
// every assignment on a level prices alike up to ulp noise in the fold,
// so only the tie-aware filter returns exhaustive's assignments.
func TestFrontierMatchesExhaustiveSymmetric(t *testing.T) {
	for n := 11; n <= 19; n++ {
		for _, sla := range []float64{BenchSLAPercent, BenchSLADeepPercent, 98} {
			assertFrontierExact(t, fmt.Sprintf("symmetric n=%d sla=%v", n, sla), BenchProblem(n, sla))
		}
	}
}

func TestFrontierMatchesExhaustiveCaseStudy(t *testing.T) {
	assertFrontierExact(t, "case study", sampleProblem())
	unattainable := sampleProblem()
	unattainable.SLA.UptimePercent = 99.9999999
	assertFrontierExact(t, "case study, unattainable SLA", unattainable)
}

// TestFrontierMatchesExhaustiveCostTies: zero-cost HA variants make
// every SLA-meeting assignment tie on TCO, so only the tie-aware
// filter (and the uptime, then lexicographic, tie-break behind it)
// returns exhaustive's assignments.
func TestFrontierMatchesExhaustiveCostTies(t *testing.T) {
	comps := make([]ComponentChoices, 8)
	for i := range comps {
		comps[i] = ComponentChoices{
			Name: "c",
			Variants: []Variant{
				{Label: "none", Cluster: availability.Cluster{Name: "c", Nodes: 1, NodeDown: 0.02, FailuresPerYear: 4}},
				// Same cost as the baseline: legal (Validate only forbids
				// cheaper), and it produces the TCO ties.
				{Label: "ha", Cluster: availability.Cluster{
					Name: "c", Nodes: 2, Tolerated: 1, NodeDown: 0.02, FailuresPerYear: 4, Failover: 30 * time.Second,
				}},
			},
		}
	}
	for _, sla := range []float64{90, 97, 99.99} {
		p := &Problem{Components: comps, SLA: cost.SLA{UptimePercent: sla, Penalty: cost.Penalty{PerHour: cost.Dollars(100)}}}
		assertFrontierExact(t, fmt.Sprintf("zero-cost HA, sla=%v", sla), p)
	}
}

// paretoReference is the Pareto frontier by enumeration: per distinct
// HA cost the candidate of highest uptime (exact ties to the first in
// presentation order: fewest clustered components, then the stream's
// lexicographic order), then, by ascending cost, those with strictly
// rising uptime. It streams, so its memory is O(distinct costs).
func paretoReference(t *testing.T, p *Problem) []Candidate {
	best := map[cost.Money]Candidate{}
	err := p.StreamContext(context.Background(), func(cur *Cursor) error {
		ha, up := cur.HACost(), cur.Uptime()
		b, ok := best[ha]
		if !ok || up > b.Uptime || (up == b.Uptime && cur.Assignment().haCount() < b.Assignment.haCount()) {
			best[ha] = cur.Candidate()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]cost.Money, 0, len(best))
	for ha := range best {
		costs = append(costs, ha)
	}
	slices.Sort(costs)
	var front []Candidate
	for _, ha := range costs {
		if c := best[ha]; len(front) == 0 || c.Uptime > front[len(front)-1].Uptime {
			front = append(front, c)
		}
	}
	return front
}

func TestParetoContextMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	problems := []*Problem{sampleProblem()}
	for i := 0; i < 300; i++ {
		problems = append(problems, randomProblem(rng))
	}
	for i := 0; i < 60; i++ {
		problems = append(problems, heterogeneousProblem(rng, 6+rng.Intn(7)))
	}
	for n := 2; n <= 18; n += 4 {
		problems = append(problems, BenchProblem(n, BenchSLAPercent))
	}
	for i, p := range problems {
		want := paretoReference(t, p)
		got, err := p.ParetoContext(context.Background())
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("problem %d: %d frontier points, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !equalAssignments(got[j].Assignment, want[j].Assignment) || got[j].Uptime != want[j].Uptime || got[j].TCO != want[j].TCO {
				t.Fatalf("problem %d point %d: %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestFrontierSolvesWideShapeExactly: the n=30 shape the enumerating
// strategies refuse (2^30 > MaxCandidates) is answered exactly by auto,
// on the cheapest level of the closed form, with one Pareto point per
// level.
func TestFrontierSolvesWideShapeExactly(t *testing.T) {
	p := BenchProblem(BenchWideN, BenchSLAWidePercent)
	if p.SpaceSize() <= MaxCandidates {
		t.Fatalf("wide shape fits the enumerating strategies (space %d)", p.SpaceSize())
	}
	res, err := Solve(context.Background(), p, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyFrontier || res.Approximate || res.BudgetExhausted {
		t.Fatalf("auto on n=30: strategy %q approximate %v exhausted %v", res.Strategy, res.Approximate, res.BudgetExhausted)
	}
	// Closed form: every level prices alike, so the optimum sits on
	// the cheapest level and min-risk on the first level meeting the SLA.
	bestLevel, riskLevel := -1, -1
	var bestTCO cost.Money
	for m := 0; m <= BenchWideN; m++ {
		a := make(Assignment, BenchWideN)
		for j := BenchWideN - m; j < BenchWideN; j++ {
			a[j] = 1
		}
		c, err := p.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if bestLevel < 0 || c.TCO.Total() < bestTCO {
			bestLevel, bestTCO = m, c.TCO.Total()
		}
		if riskLevel < 0 && c.MeetsSLA(p.SLA) {
			riskLevel = m
		}
	}
	if got := res.Best.Assignment.haCount(); got != bestLevel {
		t.Fatalf("best on level %d, closed form level %d", got, bestLevel)
	}
	if d := res.Best.TCO.Total() - bestTCO; d < -1 || d > 1 {
		t.Fatalf("best TCO %v, closed form %v", res.Best.TCO.Total(), bestTCO)
	}
	if !res.NoPenaltyFound || res.BestNoPenalty.Assignment.haCount() != riskLevel {
		t.Fatalf("min-risk on level %d, closed form level %d", res.BestNoPenalty.Assignment.haCount(), riskLevel)
	}
	front, err := p.ParetoContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != BenchWideN+1 {
		t.Fatalf("n=30 frontier has %d points, want %d", len(front), BenchWideN+1)
	}
}

// TestPresentationFrontierMatchesStream pins SolvePresentation's three
// paths to one another: the DP in presentation tie order (frontier),
// the full stream folded under the cards' rule (exhaustive) and the DP
// beside the level search (pruned) pick the same Best and
// BestNoPenalty assignments, priced bit-identically, on random,
// heterogeneous, tie-heavy symmetric and zero-cost-HA shapes.
func TestPresentationFrontierMatchesStream(t *testing.T) {
	check := func(label string, p *Problem) {
		t.Helper()
		ref, err := SolvePresentation(context.Background(), p, SolverConfig{Strategy: StrategyExhaustive})
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", label, err)
		}
		if ref.Evaluated != p.SpaceSize() || ref.Skipped != 0 {
			t.Fatalf("%s: exhaustive accounting %d + %d, space %d", label, ref.Evaluated, ref.Skipped, p.SpaceSize())
		}
		for _, strategy := range []string{StrategyFrontier, StrategyPruned, StrategyAuto} {
			got, err := SolvePresentation(context.Background(), p, SolverConfig{Strategy: strategy})
			if err != nil {
				t.Fatalf("%s: %s: %v", label, strategy, err)
			}
			if got.Approximate || got.Evaluated+got.Skipped != p.SpaceSize() {
				t.Fatalf("%s: %s approximate %v, accounting %d + %d", label, strategy, got.Approximate, got.Evaluated, got.Skipped)
			}
			same := func(what string, g, w Candidate) {
				if !equalAssignments(g.Assignment, w.Assignment) || g.Uptime != w.Uptime || g.TCO != w.TCO {
					t.Fatalf("%s: %s %s %v, stream %v", label, strategy, what, g.Assignment, w.Assignment)
				}
			}
			same("best", got.Best, ref.Best)
			if got.NoPenaltyFound != ref.NoPenaltyFound {
				t.Fatalf("%s: %s NoPenaltyFound %v, stream %v", label, strategy, got.NoPenaltyFound, ref.NoPenaltyFound)
			}
			if ref.NoPenaltyFound {
				same("min-risk", got.BestNoPenalty, ref.BestNoPenalty)
			}
		}
	}
	rng := rand.New(rand.NewSource(2311))
	for trial := 0; trial < 1000; trial++ {
		check(fmt.Sprintf("random trial %d", trial), randomProblem(rng))
	}
	for trial := 0; trial < 100; trial++ {
		check(fmt.Sprintf("heterogeneous trial %d", trial), heterogeneousProblem(rng, 6+rng.Intn(7)))
	}
	for n := 8; n <= 16; n++ {
		for _, sla := range []float64{BenchSLAPercent, BenchSLADeepPercent, 98, 99} {
			check(fmt.Sprintf("symmetric n=%d sla=%v", n, sla), BenchProblem(n, sla))
		}
	}
}
