package optimize

import (
	"errors"
	"testing"

	"uptimebroker/internal/cost"
)

func TestConstraintsValidate(t *testing.T) {
	if err := (Constraints{}).Validate(3); err != nil {
		t.Fatalf("zero constraints rejected: %v", err)
	}
	bad := []Constraints{
		{MaxHACost: -1},
		{MinUptime: -0.1},
		{MinUptime: 1.1},
		{Require: []bool{true}}, // wrong length for n=3
	}
	for _, c := range bad {
		if err := c.Validate(3); err == nil {
			t.Fatalf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestExhaustiveConstrainedBudget(t *testing.T) {
	p := sampleProblem()

	// Unconstrained optimum buys storage HA ($350).
	un, err := p.ExhaustiveConstrained(Constraints{})
	if err != nil {
		t.Fatalf("unconstrained: %v", err)
	}
	if un.Best.TCO.HA != cost.Dollars(350) {
		t.Fatalf("unconstrained best HA cost = %v", un.Best.TCO.HA)
	}

	// A $100 budget forces the no-HA baseline.
	capped, err := p.ExhaustiveConstrained(Constraints{MaxHACost: cost.Dollars(100)})
	if err != nil {
		t.Fatalf("capped: %v", err)
	}
	if capped.Best.TCO.HA != 0 {
		t.Fatalf("capped best HA cost = %v, want 0", capped.Best.TCO.HA)
	}
	if capped.Skipped != 7 {
		t.Fatalf("capped skipped = %d, want 7", capped.Skipped)
	}
}

func TestExhaustiveConstrainedMinUptime(t *testing.T) {
	p := sampleProblem()
	// Require 98% uptime regardless of economics; the cheapest compliant
	// option is storage+network (the paper's option #5 shape).
	res, err := p.ExhaustiveConstrained(Constraints{MinUptime: 0.98})
	if err != nil {
		t.Fatalf("ExhaustiveConstrained: %v", err)
	}
	if res.Best.Uptime < 0.98 {
		t.Fatalf("best uptime = %v, violates floor", res.Best.Uptime)
	}
	if got, want := res.Best.Assignment, (Assignment{0, 1, 1}); !equalAssignments(got, want) {
		t.Fatalf("best = %v, want %v", got, want)
	}
}

func TestExhaustiveConstrainedRequire(t *testing.T) {
	p := sampleProblem()
	// Compliance pin: compute must be clustered.
	res, err := p.ExhaustiveConstrained(Constraints{Require: []bool{true, false, false}})
	if err != nil {
		t.Fatalf("ExhaustiveConstrained: %v", err)
	}
	if res.Best.Assignment[0] == 0 {
		t.Fatalf("require violated: %v", res.Best.Assignment)
	}
}

func TestExhaustiveConstrainedInfeasible(t *testing.T) {
	p := sampleProblem()
	_, err := p.ExhaustiveConstrained(Constraints{MinUptime: 0.999999})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestExhaustiveConstrainedValidationErrors(t *testing.T) {
	p := sampleProblem()
	if _, err := p.ExhaustiveConstrained(Constraints{MaxHACost: -1}); err == nil {
		t.Fatal("invalid constraints should fail")
	}
	bad := &Problem{}
	if _, err := bad.ExhaustiveConstrained(Constraints{}); err == nil {
		t.Fatal("invalid problem should fail")
	}
}

func TestTopK(t *testing.T) {
	p := sampleProblem()
	top, err := p.TopK(3)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(top) != 3 {
		t.Fatalf("TopK len = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].TCO.Total() < top[i-1].TCO.Total() {
			t.Fatal("TopK not ascending by TCO")
		}
	}
	ex, _ := p.Exhaustive()
	if top[0].TCO.Total() != ex.Best.TCO.Total() {
		t.Fatalf("TopK[0] = %v, exhaustive best = %v", top[0].TCO.Total(), ex.Best.TCO.Total())
	}

	// k beyond the space returns everything.
	all, err := p.TopK(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != p.SpaceSize() {
		t.Fatalf("TopK(1000) len = %d, want %d", len(all), p.SpaceSize())
	}
	if _, err := p.TopK(0); err == nil {
		t.Fatal("TopK(0) should fail")
	}
}
