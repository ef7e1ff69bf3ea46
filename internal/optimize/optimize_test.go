package optimize

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// twoChoice builds a component with a no-HA baseline and one HA variant
// in the shape of the paper's case study.
func twoChoice(name string, active int, down float64, haCost cost.Money, haDown float64) ComponentChoices {
	return ComponentChoices{
		Name: name,
		Variants: []Variant{
			{
				Label:   "none",
				Cluster: availability.Cluster{Name: name, Nodes: active, Tolerated: 0, NodeDown: down},
			},
			{
				Label: "ha",
				Cluster: availability.Cluster{
					Name: name, Nodes: active + 1, Tolerated: 1, NodeDown: haDown,
					FailuresPerYear: 4, Failover: 5 * time.Minute,
				},
				MonthlyCost: haCost,
			},
		},
	}
}

func sampleProblem() *Problem {
	return &Problem{
		Components: []ComponentChoices{
			twoChoice("compute", 3, 0.006, cost.Dollars(1800), 0.006),
			twoChoice("storage", 1, 0.02, cost.Dollars(350), 0.02),
			twoChoice("network", 1, 0.014, cost.Dollars(900), 0.014),
		},
		SLA: cost.SLA{UptimePercent: 98, Penalty: cost.Penalty{PerHour: cost.Dollars(100)}},
	}
}

func TestProblemValidate(t *testing.T) {
	if err := sampleProblem().Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}

	t.Run("no components", func(t *testing.T) {
		p := &Problem{SLA: cost.SLA{UptimePercent: 98}}
		if err := p.Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad SLA", func(t *testing.T) {
		p := sampleProblem()
		p.SLA.UptimePercent = 0
		if err := p.Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("empty variants", func(t *testing.T) {
		p := sampleProblem()
		p.Components[0].Variants = nil
		if err := p.Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("invalid cluster", func(t *testing.T) {
		p := sampleProblem()
		p.Components[1].Variants[0].Cluster.Nodes = 0
		if err := p.Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("negative cost", func(t *testing.T) {
		p := sampleProblem()
		p.Components[1].Variants[1].MonthlyCost = -1
		if err := p.Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("baseline not cheapest", func(t *testing.T) {
		p := sampleProblem()
		p.Components[1].Variants[0].MonthlyCost = cost.Dollars(10000)
		if err := p.Validate(); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestSpaceSize(t *testing.T) {
	p := sampleProblem()
	if got := p.SpaceSize(); got != 8 {
		t.Fatalf("SpaceSize() = %d, want 8 (2^3)", got)
	}
}

func TestEvaluateErrors(t *testing.T) {
	p := sampleProblem()
	if _, err := p.Evaluate(Assignment{0}); err == nil {
		t.Fatal("short assignment should fail")
	}
	if _, err := p.Evaluate(Assignment{0, 0, 7}); err == nil {
		t.Fatal("out-of-range variant should fail")
	}
	if _, err := p.Evaluate(Assignment{0, 0, -1}); err == nil {
		t.Fatal("negative variant should fail")
	}
}

func TestEvaluateComposition(t *testing.T) {
	p := sampleProblem()
	c, err := p.Evaluate(Assignment{1, 1, 1})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if want := cost.Dollars(1800 + 350 + 900); c.TCO.HA != want {
		t.Fatalf("HA cost = %v, want %v", c.TCO.HA, want)
	}
	if c.Uptime <= 0.99 {
		t.Fatalf("full-HA uptime = %v, want > 0.99", c.Uptime)
	}
	if !c.MeetsSLA(p.SLA) {
		t.Fatal("full-HA option should meet a 98% SLA")
	}
	if c.TCO.ExpectedPenalty != 0 {
		t.Fatalf("penalty above SLA = %v, want 0", c.TCO.ExpectedPenalty)
	}
}

func TestExhaustiveVisitsWholeSpace(t *testing.T) {
	p := sampleProblem()
	res, err := p.Exhaustive()
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if res.Evaluated != 8 {
		t.Fatalf("Evaluated = %d, want 8", res.Evaluated)
	}
	if res.Skipped != 0 {
		t.Fatalf("Skipped = %d, want 0 for exhaustive", res.Skipped)
	}
	if len(res.Best.Assignment) != 3 {
		t.Fatalf("Best assignment length = %d", len(res.Best.Assignment))
	}
	// With these parameters storage HA alone is the TCO optimum (the
	// case-study shape).
	if got, want := res.Best.Assignment, (Assignment{0, 1, 0}); !equalAssignments(got, want) {
		t.Fatalf("Best = %v, want %v", got, want)
	}
	if !res.NoPenaltyFound {
		t.Fatal("some option meets a 98% SLA; NoPenaltyFound should be true")
	}
}

func equalAssignments(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAllReturnsEnumerationOrder(t *testing.T) {
	p := sampleProblem()
	all, err := p.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(all) != 8 {
		t.Fatalf("All returned %d candidates, want 8", len(all))
	}
	if !equalAssignments(all[0].Assignment, Assignment{0, 0, 0}) {
		t.Fatalf("first candidate = %v, want baseline", all[0].Assignment)
	}
	if !equalAssignments(all[7].Assignment, Assignment{1, 1, 1}) {
		t.Fatalf("last candidate = %v, want full HA", all[7].Assignment)
	}
	// Mixed-radix order: the last component is the fastest digit.
	if !equalAssignments(all[1].Assignment, Assignment{0, 0, 1}) {
		t.Fatalf("second candidate = %v, want {0,0,1}", all[1].Assignment)
	}
}

func TestPrunedMatchesExhaustive(t *testing.T) {
	p := sampleProblem()
	ex, err := p.Exhaustive()
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	pr, err := p.Pruned()
	if err != nil {
		t.Fatalf("Pruned: %v", err)
	}
	if ex.Best.TCO.Total() != pr.Best.TCO.Total() {
		t.Fatalf("pruned best TCO %v != exhaustive %v", pr.Best.TCO.Total(), ex.Best.TCO.Total())
	}
	if ex.NoPenaltyFound != pr.NoPenaltyFound {
		t.Fatalf("NoPenaltyFound mismatch: %v vs %v", pr.NoPenaltyFound, ex.NoPenaltyFound)
	}
	if ex.NoPenaltyFound && ex.BestNoPenalty.TCO.Total() != pr.BestNoPenalty.TCO.Total() {
		t.Fatalf("pruned BestNoPenalty %v != exhaustive %v",
			pr.BestNoPenalty.TCO.Total(), ex.BestNoPenalty.TCO.Total())
	}
	if pr.Evaluated+pr.Skipped != ex.Evaluated {
		t.Fatalf("pruned accounted for %d candidates, want %d", pr.Evaluated+pr.Skipped, ex.Evaluated)
	}
	if pr.Skipped == 0 {
		t.Fatal("case-study shape should prune at least one superset (e.g. #8 after #5)")
	}
}

// TestBranchAndBoundMatchesExhaustive: the retired branch-and-bound
// name still answers, now by running frontier, with exhaustive's
// optimum.
func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	p := sampleProblem()
	ex, _ := p.Exhaustive()
	bb, err := Solve(context.Background(), p, StrategyBranchAndBound)
	if err != nil {
		t.Fatalf("Solve(branch-and-bound): %v", err)
	}
	if bb.Strategy != StrategyFrontier {
		t.Fatalf("branch-and-bound ran %q, want frontier", bb.Strategy)
	}
	if ex.Best.TCO.Total() != bb.Best.TCO.Total() {
		t.Fatalf("branch-and-bound best TCO %v != exhaustive %v", bb.Best.TCO.Total(), ex.Best.TCO.Total())
	}
}

// randomProblem builds a random valid instance for equivalence checks.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(5)
	comps := make([]ComponentChoices, n)
	for i := range comps {
		k := 2 + rng.Intn(3)
		variants := make([]Variant, k)
		active := 1 + rng.Intn(3)
		down := 0.002 + rng.Float64()*0.03
		variants[0] = Variant{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: active, Tolerated: 0, NodeDown: down},
		}
		prevCost := cost.Money(0)
		for v := 1; v < k; v++ {
			prevCost += cost.Dollars(float64(1 + rng.Intn(2000)))
			variants[v] = Variant{
				Label: "ha",
				Cluster: availability.Cluster{
					Name: "c", Nodes: active + v, Tolerated: v, NodeDown: down,
					FailuresPerYear: rng.Float64() * 8,
					Failover:        time.Duration(rng.Intn(20)) * time.Minute,
				},
				MonthlyCost: prevCost,
			}
		}
		comps[i] = ComponentChoices{Name: "c", Variants: variants}
	}
	return &Problem{
		Components: comps,
		SLA: cost.SLA{
			UptimePercent: 90 + rng.Float64()*9.9,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(float64(1 + rng.Intn(500)))},
		},
	}
}

func TestPropertySearchesAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(20170611))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		ex, err := p.Exhaustive()
		if err != nil {
			t.Fatalf("trial %d: Exhaustive: %v", trial, err)
		}
		pr, err := p.Pruned()
		if err != nil {
			t.Fatalf("trial %d: Pruned: %v", trial, err)
		}
		fr, err := Solve(context.Background(), p, StrategyFrontier)
		if err != nil {
			t.Fatalf("trial %d: frontier: %v", trial, err)
		}
		if pr.Best.TCO.Total() != ex.Best.TCO.Total() {
			t.Fatalf("trial %d: pruned optimum %v != exhaustive %v (pruned asg %v, ex asg %v)",
				trial, pr.Best.TCO.Total(), ex.Best.TCO.Total(), pr.Best.Assignment, ex.Best.Assignment)
		}
		if fr.Best.TCO.Total() != ex.Best.TCO.Total() {
			t.Fatalf("trial %d: frontier optimum %v != exhaustive %v", trial, fr.Best.TCO.Total(), ex.Best.TCO.Total())
		}
		if pr.NoPenaltyFound != ex.NoPenaltyFound {
			t.Fatalf("trial %d: NoPenaltyFound mismatch", trial)
		}
		if ex.NoPenaltyFound && pr.BestNoPenalty.TCO.Total() != ex.BestNoPenalty.TCO.Total() {
			t.Fatalf("trial %d: BestNoPenalty mismatch: %v vs %v",
				trial, pr.BestNoPenalty.TCO.Total(), ex.BestNoPenalty.TCO.Total())
		}
		if pr.Evaluated+pr.Skipped != ex.Evaluated {
			t.Fatalf("trial %d: pruned accounting %d+%d != %d",
				trial, pr.Evaluated, pr.Skipped, ex.Evaluated)
		}
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(ha float64, uptime float64) Candidate {
		return Candidate{
			Assignment: Assignment{0},
			Uptime:     uptime,
			TCO:        cost.TCO{HA: cost.Dollars(ha)},
		}
	}
	cands := []Candidate{
		mk(0, 0.95),    // front: cheapest
		mk(100, 0.97),  // front
		mk(150, 0.96),  // dominated by (100, 0.97)
		mk(200, 0.99),  // front
		mk(250, 0.99),  // dominated (same uptime, higher cost)
		mk(300, 0.985), // dominated
	}
	front := ParetoFront(cands)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3: %+v", len(front), front)
	}
	for i := 1; i < len(front); i++ {
		if front[i].TCO.HA <= front[i-1].TCO.HA {
			t.Fatal("front not sorted by ascending cost")
		}
		if front[i].Uptime <= front[i-1].Uptime {
			t.Fatal("front uptime not strictly increasing")
		}
	}
	if ParetoFront(nil) != nil {
		t.Fatal("empty input should give nil front")
	}
}

func TestPropertyParetoFrontIsNonDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng)
		all, err := p.All()
		if err != nil {
			t.Fatalf("All: %v", err)
		}
		front := ParetoFront(all)
		if len(front) == 0 {
			t.Fatal("front empty for nonempty candidates")
		}
		for _, f := range front {
			for _, c := range all {
				if c.TCO.HA <= f.TCO.HA && c.Uptime > f.Uptime && c.TCO.HA < f.TCO.HA {
					t.Fatalf("front member (%v, %v) dominated by (%v, %v)",
						f.TCO.HA, f.Uptime, c.TCO.HA, c.Uptime)
				}
			}
		}
	}
}

func TestMaxCandidatesGuard(t *testing.T) {
	// 27 components with 2 variants each exceed 2^26.
	comps := make([]ComponentChoices, 27)
	for i := range comps {
		comps[i] = twoChoice("c", 1, 0.01, cost.Dollars(10), 0.01)
	}
	p := &Problem{Components: comps, SLA: cost.SLA{UptimePercent: 98, Penalty: cost.Penalty{PerHour: cost.Dollars(1)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("oversized space should fail validation")
	}
}
