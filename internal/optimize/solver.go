package optimize

import (
	"context"
	"fmt"
)

// Strategy names. Every strategy supports context cancellation,
// WithProgress hooks and WithStrategyReport hooks, and returns the
// same Best/BestNoPenalty assignments as exhaustive for the same
// problem (a property the equivalence tests enforce on randomized
// instances). A frontier run that a budget or its state cap stops
// early is the one exception: it marks its result Approximate and
// certifies how far its incumbent can be from optimal through the
// Result's Bound/Gap fields.
const (
	// StrategyExhaustive prices every one of the k^n candidates
	// (Equation 6 verbatim): the reference, and the only strategy whose
	// Evaluated always equals the space size.
	StrategyExhaustive = "exhaustive"

	// StrategyFrontier is the exact dominance DP of frontier.go, the
	// production strategy: it folds one component per level and keeps
	// only the prefix states no other state dominates, so its work
	// follows the number of non-dominated states rather than k^n. It
	// alone honors an evaluation budget, and it takes spaces up to the
	// shape ceiling rather than MaxCandidates.
	StrategyFrontier = "frontier"

	// StrategyAuto resolves to frontier for every space. It is the
	// default everywhere a strategy is selectable.
	StrategyAuto = "auto"
)

// Retired strategy names. Each is a deprecated alias of frontier: it
// still validates and runs, and results echo "frontier". The Section
// III.C level search that "pruned" used to name survives as the
// Problem.Pruned reference.
//
// Deprecated: name StrategyFrontier (or StrategyAuto) instead.
const (
	StrategyPruned         = "pruned"
	StrategyBranchAndBound = "branch-and-bound"
	StrategyParallelPruned = "parallel-pruned"
	StrategyBeam           = "beam"
	StrategyLDS            = "lds"
	StrategyBounded        = "bounded"
)

// Strategies returns the selectable strategy names, sorted. The
// retired aliases are not listed.
func Strategies() []string {
	return []string{StrategyAuto, StrategyExhaustive, StrategyFrontier}
}

// ValidStrategy reports whether name is a strategy or a retired alias
// ("" counts as valid: it means auto).
func ValidStrategy(name string) bool {
	_, err := resolve(name)
	return err == nil
}

// resolve names the search a strategy runs: "", auto and every
// retired alias run frontier.
func resolve(name string) (string, error) {
	switch name {
	case "", StrategyAuto, StrategyFrontier, StrategyPruned, StrategyBranchAndBound,
		StrategyParallelPruned, StrategyBeam, StrategyLDS, StrategyBounded:
		return StrategyFrontier, nil
	case StrategyExhaustive:
		return StrategyExhaustive, nil
	}
	return "", fmt.Errorf("optimize: unknown strategy %q (choose from %v)", name, Strategies())
}

// Solve runs the named strategy ("" or "auto" runs frontier) and
// stamps the result with the concrete strategy that ran. A
// WithStrategyReport hook on the context hears the resolved name
// before the search starts, which is how the async job surface echoes
// the choice into live progress.
func Solve(ctx context.Context, p *Problem, strategy string) (Result, error) {
	return SolveConfig(ctx, p, SolverConfig{Strategy: strategy})
}

// SolveConfig is Solve under a budget. Frontier honors both budget
// kinds natively, answering with a certified incumbent when one fires.
// For exhaustive a wall budget becomes a context deadline, and an
// evaluation cap is refused: it cannot stop early and still be exact.
func SolveConfig(ctx context.Context, p *Problem, cfg SolverConfig) (Result, error) {
	return solveConfig(ctx, p, cfg, false)
}

// SolvePresentation is SolveConfig under the option cards' selection
// rule: Best is the lowest-TCO candidate and BestNoPenalty the
// lowest-HA-cost SLA-meeting one, each tie going to the first
// candidate in presentation order (fewest clustered components, then
// lexicographic) instead of to the higher uptime. Frontier runs its DP
// in presentation tie order and exhaustive folds the full stream under
// the rule. Budgets, hooks and the strategy echo behave as in
// SolveConfig.
func SolvePresentation(ctx context.Context, p *Problem, cfg SolverConfig) (Result, error) {
	return solveConfig(ctx, p, cfg, true)
}

func solveConfig(ctx context.Context, p *Problem, cfg SolverConfig, presentation bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	name, _ := resolve(cfg.Strategy)
	reportStrategy(ctx, name)
	var res Result
	var err error
	switch {
	case name == StrategyFrontier:
		res, err = p.frontierSearch(ctx, cfg.Budget, presentation)
	case cfg.Budget.MaxEvaluations > 0:
		return Result{}, fmt.Errorf("optimize: strategy %q is exact and cannot honor max_evaluations; use frontier or auto", name)
	default:
		if cfg.Budget.Wall > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.Budget.Wall)
			defer cancel()
		}
		if presentation {
			res, err = p.exhaustivePresentation(ctx)
		} else {
			res, err = p.ExhaustiveContext(ctx)
		}
	}
	if err != nil {
		return Result{}, err
	}
	res.Strategy = name
	return res, nil
}
