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

	// StrategyAuto resolves to exhaustive for spaces of at most
	// autoExhaustiveSpace candidates without an evaluation cap (where
	// the broker fuses it with the card-pricing pass), and to frontier
	// otherwise. It is the default everywhere a strategy is selectable.
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

// autoExhaustiveSpace is the largest space auto hands to exhaustive:
// there the broker prices every card anyway, so the fused pass gets
// the search for free.
const autoExhaustiveSpace = 1 << 10

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
		{StrategyFrontier, func(ctx context.Context, p *Problem) (Result, error) { return p.frontierSearch(ctx, Budget{}) }},
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

// ResolveStrategy reports the concrete solver a Solve call with this
// strategy would run on the given problem. Layers that can answer a
// request without a separate solver pass — the broker's fused
// streaming Recommend when the resolved strategy is exhaustive — use
// it to make that call before starting the enumeration.
func ResolveStrategy(p *Problem, strategy string) (string, error) {
	return ResolveConfig(p, SolverConfig{Strategy: strategy})
}

// ResolveConfig is ResolveStrategy for a full solver config: "" and
// "auto" resolve from the space size and the evaluation budget (which
// needs a valid problem shape), a retired alias resolves to frontier,
// and anything else echoes the registered name.
func ResolveConfig(p *Problem, cfg SolverConfig) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	s, err := solverByName(cfg.Strategy)
	if err != nil {
		return "", err
	}
	if s.Name() != StrategyAuto {
		return s.Name(), nil
	}
	if err := p.ValidateShape(); err != nil {
		return "", err
	}
	if p.SpaceSize() <= autoExhaustiveSpace && cfg.Budget.MaxEvaluations == 0 {
		return StrategyExhaustive, nil
	}
	return StrategyFrontier, nil
}

// Solve runs the named strategy ("" or "auto" lets ResolveConfig
// pick) and stamps the result with the concrete strategy that ran. A
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
	name, err := ResolveConfig(p, cfg)
	if err != nil {
		return Result{}, err
	}
	reportStrategy(ctx, name)
	var res Result
	if name == StrategyFrontier {
		res, err = p.frontierSearch(ctx, cfg.Budget)
	} else {
		if cfg.Budget.MaxEvaluations > 0 {
			return Result{}, fmt.Errorf("optimize: strategy %q is exact and cannot honor max_evaluations; use frontier or auto", name)
		}
		if cfg.Budget.Wall > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.Budget.Wall)
			defer cancel()
		}
		s, _ := solverByName(name)
		res, err = s.Solve(ctx, p)
	}
	if err != nil {
		return Result{}, err
	}
	res.Strategy = name
	return res, nil
}
