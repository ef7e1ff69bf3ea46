package optimize

import (
	"context"
	"testing"
)

// progressProblem builds an instance big enough to cross the report
// cadence: 2^9 = 512 candidates.
func progressProblem(t *testing.T) *Problem {
	t.Helper()
	p := bigProblem(9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllContextReportsProgress(t *testing.T) {
	p := progressProblem(t)
	var reports []int64
	var lastSpace int64
	ctx := WithProgress(context.Background(), func(evaluated, space int64) {
		reports = append(reports, evaluated)
		lastSpace = space
	})
	if _, err := p.AllContext(ctx); err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("got %d progress reports, want several across 256 candidates", len(reports))
	}
	if lastSpace != int64(p.SpaceSize()) {
		t.Fatalf("space = %d, want %d", lastSpace, p.SpaceSize())
	}
	if final := reports[len(reports)-1]; final != int64(p.SpaceSize()) {
		t.Fatalf("final report = %d, want the full space %d", final, p.SpaceSize())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] < reports[i-1] {
			t.Fatalf("progress regressed: %v", reports)
		}
	}
}

// TestPrunedContextProgressCoversSpace: a search requested under the
// retired pruned name reports frontier's progress, whose final report
// accounts for the whole space as evaluated + skipped.
func TestPrunedContextProgressCoversSpace(t *testing.T) {
	p := progressProblem(t)
	var final, space int64
	ctx := WithProgress(context.Background(), func(evaluated, sp int64) {
		final, space = evaluated, sp
	})
	res, err := Solve(ctx, p, StrategyPruned)
	if err != nil {
		t.Fatal(err)
	}
	if final != int64(res.Evaluated+res.Skipped) {
		t.Fatalf("final progress %d, want evaluated+skipped = %d", final, res.Evaluated+res.Skipped)
	}
	if final != space || space != int64(p.SpaceSize()) {
		t.Fatalf("final/space = %d/%d, want both %d", final, space, p.SpaceSize())
	}
}

func TestNoHookNoReports(t *testing.T) {
	p := progressProblem(t)
	// No WithProgress: must run exactly as before (smoke for the nil
	// fast path).
	if _, err := p.ExhaustiveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}
