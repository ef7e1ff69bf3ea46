package optimize

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestStrategiesRegistered pins the selectable set to the two searches
// plus auto; every retired name, pruned included, still validates.
func TestStrategiesRegistered(t *testing.T) {
	want := []string{StrategyAuto, StrategyExhaustive, StrategyFrontier}
	if got := Strategies(); !slices.Equal(got, want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for _, name := range append(want, StrategyPruned, StrategyBranchAndBound, StrategyParallelPruned, StrategyBeam, StrategyLDS, StrategyBounded) {
		if !ValidStrategy(name) {
			t.Fatalf("ValidStrategy(%q) = false", name)
		}
	}
	if !ValidStrategy("") {
		t.Fatal("empty strategy should be valid (caller default)")
	}
	if ValidStrategy("simulated-annealing") {
		t.Fatal("unregistered strategy should be invalid")
	}
}

func TestSolveUnknownStrategy(t *testing.T) {
	_, err := Solve(context.Background(), sampleProblem(), "no-such-solver")
	if err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("Solve with unknown strategy = %v, want unknown-strategy error", err)
	}
}

// TestSolverEquivalenceOnRandomInstances is the exactness guarantee:
// every strategy returns the identical
// Best/BestNoPenalty assignments on randomized instances, and its
// accounting covers the space.
func TestSolverEquivalenceOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	strategies := Strategies()
	for trial := 0; trial < 120; trial++ {
		p := randomProblem(rng)
		ref, err := p.Exhaustive()
		if err != nil {
			t.Fatalf("trial %d: Exhaustive: %v", trial, err)
		}
		for _, strategy := range strategies {
			res, err := Solve(context.Background(), p, strategy)
			if err != nil {
				t.Fatalf("trial %d: Solve(%s): %v", trial, strategy, err)
			}
			if res.Strategy == "" || res.Strategy == StrategyAuto {
				t.Fatalf("trial %d: Solve(%s) reported strategy %q, want a concrete solver", trial, strategy, res.Strategy)
			}
			if res.Best.TCO.Total() != ref.Best.TCO.Total() {
				t.Fatalf("trial %d: %s optimum %v != exhaustive %v (asg %v vs %v)",
					trial, strategy, res.Best.TCO.Total(), ref.Best.TCO.Total(), res.Best.Assignment, ref.Best.Assignment)
			}
			if !equalAssignments(res.Best.Assignment, ref.Best.Assignment) {
				t.Fatalf("trial %d: %s best assignment %v != exhaustive %v",
					trial, strategy, res.Best.Assignment, ref.Best.Assignment)
			}
			if res.NoPenaltyFound != ref.NoPenaltyFound {
				t.Fatalf("trial %d: %s NoPenaltyFound %v != exhaustive %v", trial, strategy, res.NoPenaltyFound, ref.NoPenaltyFound)
			}
			if ref.NoPenaltyFound && !equalAssignments(res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment) {
				t.Fatalf("trial %d: %s BestNoPenalty %v != exhaustive %v",
					trial, strategy, res.BestNoPenalty.Assignment, ref.BestNoPenalty.Assignment)
			}
			if res.Evaluated+res.Skipped != ref.Evaluated {
				t.Fatalf("trial %d: %s accounting %d+%d != space %d",
					trial, strategy, res.Evaluated, res.Skipped, ref.Evaluated)
			}
		}
	}
}

// TestAutoPicksByShape pins that auto is frontier whatever the shape:
// small or large space, attainable SLA or not, budgeted or not.
func TestAutoPicksByShape(t *testing.T) {
	t.Run("attainable small space goes frontier", func(t *testing.T) {
		res, err := Solve(context.Background(), sampleProblem(), StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyFrontier {
			t.Fatalf("auto on the case-study shape picked %q, want frontier", res.Strategy)
		}
	})
	t.Run("unattainable large space goes frontier", func(t *testing.T) {
		p := bigProblem(12)
		p.SLA.UptimePercent = 99.9999999 // nothing reaches it
		res, err := Solve(context.Background(), p, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyFrontier {
			t.Fatalf("auto on unattainable SLA picked %q, want frontier", res.Strategy)
		}
		if res.NoPenaltyFound {
			t.Fatal("nothing should meet an unattainable SLA")
		}
	})
	t.Run("unattainable small space goes frontier", func(t *testing.T) {
		p := sampleProblem()
		p.SLA.UptimePercent = 99.9999999
		res, err := Solve(context.Background(), p, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyFrontier {
			t.Fatalf("auto picked %q, want frontier", res.Strategy)
		}
	})
	t.Run("attainable large space goes frontier", func(t *testing.T) {
		p := bigProblem(16)
		p.SLA.UptimePercent = 95
		res, err := Solve(context.Background(), p, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyFrontier {
			t.Fatalf("auto picked %q, want frontier", res.Strategy)
		}
	})
	t.Run("evaluation cap goes frontier", func(t *testing.T) {
		res, err := SolveConfig(context.Background(), sampleProblem(), SolverConfig{Budget: Budget{MaxEvaluations: 100}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyFrontier {
			t.Fatalf("auto under an evaluation cap picked %q, want frontier", res.Strategy)
		}
	})
	t.Run("empty strategy means auto", func(t *testing.T) {
		res, err := Solve(context.Background(), sampleProblem(), "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyFrontier {
			t.Fatalf("empty strategy resolved to %q, want frontier", res.Strategy)
		}
	})
}

func TestSolveReportsResolvedStrategy(t *testing.T) {
	var reported []string
	ctx := WithStrategyReport(context.Background(), func(s string) {
		reported = append(reported, s)
	})
	res, err := Solve(ctx, sampleProblem(), StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(reported) != 1 || reported[0] != res.Strategy {
		t.Fatalf("strategy hook heard %v, want [%q]", reported, res.Strategy)
	}
}

// The retired branch-and-bound and parallel-pruned names run
// frontier; they keep the cancellation and progress contract of the
// searches they replaced.

func TestBranchAndBoundContextCancelled(t *testing.T) {
	p := bigProblem(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, p, StrategyBranchAndBound); !errors.Is(err, context.Canceled) {
		t.Fatalf("branch-and-bound on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestBranchAndBoundReportsProgress(t *testing.T) {
	p := bigProblem(10)
	var last, space int64
	calls := 0
	ctx := WithProgress(context.Background(), func(evaluated, spaceSize int64) {
		calls++
		last, space = evaluated, spaceSize
	})
	res, err := Solve(ctx, p, StrategyBranchAndBound)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("branch-and-bound never reported progress")
	}
	if space != int64(p.SpaceSize()) {
		t.Fatalf("reported space %d, want %d", space, p.SpaceSize())
	}
	if last != int64(res.Evaluated+res.Skipped) {
		t.Fatalf("final progress %d, want evaluated+skipped = %d", last, res.Evaluated+res.Skipped)
	}
}

func TestParallelPrunedCancelled(t *testing.T) {
	p := bigProblem(18)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, p, StrategyParallelPruned); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel-pruned on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestParallelPrunedReportsProgress(t *testing.T) {
	p := bigProblem(12)
	var reports []int64
	var space int64
	ctx := WithProgress(context.Background(), func(evaluated, spaceSize int64) {
		reports = append(reports, evaluated)
		space = spaceSize
	})
	res, err := Solve(ctx, p, StrategyParallelPruned)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("parallel-pruned never reported progress")
	}
	if space != int64(p.SpaceSize()) {
		t.Fatalf("reported space %d, want %d", space, p.SpaceSize())
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] < reports[i-1] {
			t.Fatalf("progress went backwards: %v", reports)
		}
	}
	if last := reports[len(reports)-1]; last != int64(res.Evaluated+res.Skipped) {
		t.Fatalf("final progress %d, want evaluated+skipped = %d", last, res.Evaluated+res.Skipped)
	}
}
