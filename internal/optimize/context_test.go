package optimize

import (
	"context"
	"errors"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// bigProblem builds a search space large enough that enumeration does
// not finish before a cancellation in flight lands (2^n candidates).
func bigProblem(n int) *Problem {
	comps := make([]ComponentChoices, n)
	for i := range comps {
		comps[i] = ComponentChoices{
			Name: string(rune('a' + i%26)),
			Variants: []Variant{
				{Label: "none", Cluster: availability.Cluster{Name: "c", Nodes: 1, NodeDown: 0.03, FailuresPerYear: 5}},
				{Label: "ha", Cluster: availability.Cluster{Name: "c", Nodes: 2, Tolerated: 1, NodeDown: 0.03, FailuresPerYear: 5, Failover: 30 * time.Second}, MonthlyCost: cost.Dollars(100)},
			},
		}
	}
	return &Problem{
		Components: comps,
		SLA: cost.SLA{
			UptimePercent: 99.9,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(500)},
		},
	}
}

func TestAllContextCancelled(t *testing.T) {
	p := bigProblem(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AllContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("AllContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestPrunedContextCancelled: a search requested under the retired
// pruned name runs frontier, which aborts on a cancelled context.
func TestPrunedContextCancelled(t *testing.T) {
	p := bigProblem(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, p, StrategyPruned); !errors.Is(err, context.Canceled) {
		t.Fatalf("pruned on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestExhaustiveContextCancelled(t *testing.T) {
	p := bigProblem(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExhaustiveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExhaustiveContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestContextVariantsMatchPlain(t *testing.T) {
	p := bigProblem(8)
	plain, err := p.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := p.ExhaustiveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.TCO.Total() != viaCtx.Best.TCO.Total() || plain.Evaluated != viaCtx.Evaluated {
		t.Fatalf("context variant diverges: %+v vs %+v", plain, viaCtx)
	}

	all, err := p.AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != p.SpaceSize() {
		t.Fatalf("AllContext returned %d candidates, want %d", len(all), p.SpaceSize())
	}
}

func TestCancelMidEnumeration(t *testing.T) {
	p := bigProblem(20) // 2^20 candidates: plenty of runway
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.AllContext(ctx)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AllContext = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("enumeration did not abort after cancel")
	}
}
