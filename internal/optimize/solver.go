package optimize

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Solver is one search algorithm over a Problem. Every registered
// solver uniformly supports context cancellation, WithProgress hooks
// and WithStrategyReport hooks, and returns the same Best/BestNoPenalty
// assignments as exhaustive for the same problem (a property the
// equivalence tests enforce on randomized instances). A frontier run
// that a budget or its state cap stops early is the one exception: it
// marks its result Approximate and certifies how far its incumbent can
// be from optimal through the Result's Bound/Gap fields.
type Solver interface {
	// Name is the strategy's registry key, e.g. "pruned".
	Name() string

	// Solve runs the search. The context carries cancellation plus the
	// optional progress/strategy hooks.
	Solve(ctx context.Context, p *Problem) (Result, error)
}

// Built-in strategy names.
const (
	// StrategyExhaustive prices every one of the k^n candidates
	// (Equation 6 verbatim): the reference, and the only strategy whose
	// Evaluated always equals the space size.
	StrategyExhaustive = "exhaustive"

	// StrategyPruned is the Section III.C level search with the
	// trie-indexed superset check: SLA-meeting assignments clip all of
	// their supersets from later levels. It is kept for the paper's
	// effort statistics.
	StrategyPruned = "pruned"

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
// still validates and runs, and results echo "frontier".
//
// Deprecated: name StrategyFrontier (or StrategyAuto) instead.
const (
	StrategyBranchAndBound = "branch-and-bound"
	StrategyParallelPruned = "parallel-pruned"
	StrategyBeam           = "beam"
	StrategyLDS            = "lds"
	StrategyBounded        = "bounded"
)

// aliases maps each retired strategy name onto the strategy it runs.
var aliases = map[string]string{
	StrategyBranchAndBound: StrategyFrontier,
	StrategyParallelPruned: StrategyFrontier,
	StrategyBeam:           StrategyFrontier,
	StrategyLDS:            StrategyFrontier,
	StrategyBounded:        StrategyFrontier,
}

// solverFunc adapts a function to the Solver interface.
type solverFunc struct {
	name string
	fn   func(ctx context.Context, p *Problem) (Result, error)
}

func (s solverFunc) Name() string { return s.name }
func (s solverFunc) Solve(ctx context.Context, p *Problem) (Result, error) {
	return s.fn(ctx, p)
}

// registry holds the named strategies. The built-ins register at init;
// RegisterSolver admits additional ones.
var registry = struct {
	sync.RWMutex
	m map[string]Solver
}{m: make(map[string]Solver)}

func init() {
	for _, s := range []solverFunc{
		{StrategyExhaustive, func(ctx context.Context, p *Problem) (Result, error) { return p.ExhaustiveContext(ctx) }},
		{StrategyPruned, func(ctx context.Context, p *Problem) (Result, error) { return p.PrunedContext(ctx) }},
		{StrategyFrontier, func(ctx context.Context, p *Problem) (Result, error) { return p.frontierSearch(ctx, Budget{}, false) }},
		{StrategyAuto, func(ctx context.Context, p *Problem) (Result, error) { return Solve(ctx, p, StrategyAuto) }},
	} {
		if err := RegisterSolver(s); err != nil {
			panic(err)
		}
	}
}

// RegisterSolver adds a named strategy to the registry. Registered
// solvers must be exact (same optimum as exhaustive). Duplicate or
// empty names, and the retired aliases, are an error.
func RegisterSolver(s Solver) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("optimize: solver must have a name")
	}
	registry.Lock()
	defer registry.Unlock()
	_, alias := aliases[s.Name()]
	if _, dup := registry.m[s.Name()]; dup || alias {
		return fmt.Errorf("optimize: solver %q already registered", s.Name())
	}
	registry.m[s.Name()] = s
	return nil
}

// Strategies returns the registered strategy names, sorted. The
// retired aliases are not listed.
func Strategies() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidStrategy reports whether name is registered or a retired alias
// ("" counts as valid: it means the caller's default, auto).
func ValidStrategy(name string) bool {
	_, err := solverByName(name)
	return err == nil
}

// solverByName resolves a registered strategy; "" resolves to auto
// and a retired alias to the strategy it runs.
func solverByName(name string) (Solver, error) {
	if name == "" {
		name = StrategyAuto
	}
	if to, ok := aliases[name]; ok {
		name = to
	}
	registry.RLock()
	s, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("optimize: unknown strategy %q (registered: %v)", name, Strategies())
	}
	return s, nil
}

// resolveConfig reports the concrete solver a config names: "" and
// "auto" resolve to frontier, a retired alias resolves to frontier,
// and anything else echoes the registered name.
func resolveConfig(cfg SolverConfig) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	s, err := solverByName(cfg.Strategy)
	if err != nil {
		return "", err
	}
	if s.Name() == StrategyAuto {
		return StrategyFrontier, nil
	}
	return s.Name(), nil
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
// For the enumerating strategies a wall budget becomes a context
// deadline, and an evaluation cap is refused: they cannot stop early
// and still be exact.
func SolveConfig(ctx context.Context, p *Problem, cfg SolverConfig) (Result, error) {
	return solveConfig(ctx, p, cfg, false)
}

// SolvePresentation is SolveConfig under the option cards' selection
// rule: Best is the lowest-TCO candidate and BestNoPenalty the
// lowest-HA-cost SLA-meeting one, each tie going to the first
// candidate in presentation order (fewest clustered components, then
// lexicographic) instead of to the higher uptime. Frontier runs its DP
// in presentation tie order and exhaustive folds the full stream under
// the rule, so both report their own effort; any other strategy runs
// only for its effort statistics, beside a presentation-order frontier
// run that supplies the answer. Budgets, hooks and the strategy echo
// behave as in SolveConfig.
func SolvePresentation(ctx context.Context, p *Problem, cfg SolverConfig) (Result, error) {
	return solveConfig(ctx, p, cfg, true)
}

func solveConfig(ctx context.Context, p *Problem, cfg SolverConfig, presentation bool) (Result, error) {
	name, err := resolveConfig(cfg)
	if err != nil {
		return Result{}, err
	}
	reportStrategy(ctx, name)
	if name != StrategyFrontier {
		if cfg.Budget.MaxEvaluations > 0 {
			return Result{}, fmt.Errorf("optimize: strategy %q is exact and cannot honor max_evaluations; use frontier or auto", name)
		}
		if cfg.Budget.Wall > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.Budget.Wall)
			defer cancel()
		}
	}
	var res Result
	switch {
	case name == StrategyFrontier:
		res, err = p.frontierSearch(ctx, cfg.Budget, presentation)
	case !presentation:
		s, _ := solverByName(name)
		res, err = s.Solve(ctx, p)
	case name == StrategyExhaustive:
		res, err = p.exhaustivePresentation(ctx)
	default:
		res, err = p.solveBeside(ctx, name)
	}
	if err != nil {
		return Result{}, err
	}
	res.Strategy = name
	return res, nil
}

// solveBeside answers in presentation order from a frontier run and
// takes the effort statistics from the named solver. Only the solver
// reports progress, so watchers see one pass over the space, and the
// frontier run folds for itself, as named strategies always have.
func (p *Problem) solveBeside(ctx context.Context, name string) (Result, error) {
	quiet := WithFoldCache(WithProgress(ctx, nil), nil)
	res, err := p.frontierSearch(quiet, Budget{}, true)
	if err == nil && res.Approximate {
		// The state cap stopped the DP, and the named strategy is exact:
		// the answer comes from the full stream instead.
		res, err = p.exhaustivePresentation(quiet)
	}
	if err != nil {
		return Result{}, err
	}
	s, _ := solverByName(name)
	stats, err := s.Solve(ctx, p)
	if err != nil {
		return Result{}, err
	}
	res.Evaluated, res.Skipped = stats.Evaluated, stats.Skipped
	res.CoverLookups, res.Clipped = stats.CoverLookups, stats.Clipped
	return res, nil
}
