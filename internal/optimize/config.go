package optimize

import (
	"fmt"
	"time"
)

// Budget bounds how much work a single search may spend. Zero values
// mean unlimited. Frontier honors both limits natively and reports
// BudgetExhausted when one fires; for exhaustive a wall budget
// becomes a context deadline (the run aborts instead of returning a
// partial certificate) and an evaluation cap is refused — an exact
// search cannot stop early and still be exact.
type Budget struct {
	// Wall is the wall-clock allowance for the whole search.
	Wall time.Duration

	// MaxEvaluations caps the evaluations a search performs; for
	// frontier every state it folds counts as one.
	MaxEvaluations int64
}

// IsZero reports whether the budget imposes no limit.
func (b Budget) IsZero() bool { return b.Wall == 0 && b.MaxEvaluations == 0 }

// Validate rejects negative limits.
func (b Budget) Validate() error {
	if b.Wall < 0 {
		return fmt.Errorf("optimize: negative wall budget %v", b.Wall)
	}
	if b.MaxEvaluations < 0 {
		return fmt.Errorf("optimize: negative evaluation budget %d", b.MaxEvaluations)
	}
	return nil
}

// SolverConfig selects a solver: the strategy name plus its budget.
// The zero value means "auto with no limits", which resolves exactly
// like the flat strategy string.
type SolverConfig struct {
	// Strategy is one of Strategies() or a retired alias; "" and
	// "auto" run frontier.
	Strategy string

	// Budget bounds the search's work.
	Budget Budget
}

// IsZero reports whether the config is the all-default zero value.
func (c SolverConfig) IsZero() bool {
	return c == SolverConfig{}
}

// Validate rejects unknown strategies and negative budgets.
func (c SolverConfig) Validate() error {
	if _, err := resolve(c.Strategy); err != nil {
		return err
	}
	return c.Budget.Validate()
}

// budgetTracker enforces a Budget inside the frontier DP on the same
// amortized cadence as the canceler: exceeded() is asked once per
// prospective evaluation, the evaluation cap is checked every time (it
// is one comparison), and the wall clock is polled every
// cancelCheckEvery calls so time.Now never shows up in profiles.
type budgetTracker struct {
	deadline time.Time
	maxEvals int64
	evals    int64
	polls    int
	done     bool
}

func newBudgetTracker(b Budget) budgetTracker {
	t := budgetTracker{maxEvals: b.MaxEvaluations}
	if b.Wall > 0 {
		t.deadline = time.Now().Add(b.Wall)
	}
	return t
}

// spend accounts one performed evaluation.
func (t *budgetTracker) spend() { t.evals++ }

// exceeded reports whether the budget ran out; once true it stays
// true. Callers check it before each evaluation.
func (t *budgetTracker) exceeded() bool {
	if t.done {
		return true
	}
	if t.maxEvals > 0 && t.evals >= t.maxEvals {
		t.done = true
		return true
	}
	if !t.deadline.IsZero() {
		t.polls++
		// The first call polls the clock unconditionally so a zero-headroom
		// wall budget is detected at once rather than 64 evaluations
		// later; after that the cadence amortizes the syscall.
		if (t.polls == 1 || t.polls%cancelCheckEvery == 0) && !time.Now().Before(t.deadline) {
			t.done = true
			return true
		}
	}
	return false
}
