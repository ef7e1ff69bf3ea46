package broker

import (
	"context"
	"fmt"
	"sync"
	"time"

	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
)

// Choice is one component's HA selection within an option card.
type Choice struct {
	// Component is the component name.
	Component string `json:"component"`

	// TechID is the chosen HA technology ("" = no HA).
	TechID string `json:"tech_id,omitempty"`
}

// OptionCard is one fully priced solution option — the content of the
// paper's Figures 3 through 9 (one card per HA permutation).
type OptionCard struct {
	// Option is the 1-based option number in the paper's presentation
	// order: ascending number of clustered components, lexicographic
	// within a level. The case study's option #1 is "no HA anywhere",
	// #8 is "HA everywhere".
	Option int `json:"option"`

	// Choices is the per-component HA selection.
	Choices []Choice `json:"choices"`

	// HACost is C_HA: the monthly infrastructure + labor cost of the
	// selected redundancy.
	HACost cost.Money `json:"ha_cost"`

	// Uptime is the expected uptime fraction U_s.
	Uptime float64 `json:"uptime"`

	// SlippageHours is the expected hours per month below the SLA.
	SlippageHours float64 `json:"slippage_hours"`

	// Penalty is the expected monthly slippage payout.
	Penalty cost.Money `json:"penalty"`

	// TCO is HACost + Penalty (Equation 5).
	TCO cost.Money `json:"tco"`

	// MeetsSLA reports whether expected uptime reaches the target.
	MeetsSLA bool `json:"meets_sla"`
}

// Label renders the card's HA selection compactly, e.g.
// "storage=raid1" or "none".
func (c OptionCard) Label() string {
	s := ""
	for _, ch := range c.Choices {
		if ch.TechID == "" {
			continue
		}
		if s != "" {
			s += ","
		}
		s += ch.Component + "=" + ch.TechID
	}
	if s == "" {
		return NoHALabel
	}
	return s
}

// Plan converts the card's choices into a Plan.
func (c OptionCard) Plan() Plan {
	p := make(Plan, len(c.Choices))
	for _, ch := range c.Choices {
		if ch.TechID != "" {
			p[ch.Component] = ch.TechID
		}
	}
	return p
}

// WithSearchProgress attaches a live search-progress hook to the
// context: the enumeration loops underneath Recommend and Pareto
// report (candidates accounted for, total work) through it on a fixed
// cadence. Recommend runs two passes — full pricing for the option
// cards, then the selected solver for the effort statistics — and
// reports them as one combined space of 2·k^n: the pricing pass
// covers [0, k^n], the solver pass [k^n, 2·k^n], each clamped to its
// half, so the bar advances monotonically from zero to done instead
// of double-counting the space per pass. Parallel passes may invoke
// the hook concurrently.
func WithSearchProgress(ctx context.Context, fn func(evaluated, spaceSize int64)) context.Context {
	return optimize.WithProgress(ctx, fn)
}

// splitProgress re-scopes a caller's WithSearchProgress hook over
// Recommend's two passes: both returned contexts report into one
// combined, monotone space of 2·space (pricing first half, solver
// second half). Without a hook on ctx both passes run on ctx itself.
func splitProgress(ctx context.Context, space int64) (pricing, solver context.Context) {
	fn := optimize.ContextProgress(ctx)
	if fn == nil {
		return ctx, ctx
	}
	total := 2 * space
	var mu sync.Mutex
	var high int64
	report := func(v int64) {
		mu.Lock()
		defer mu.Unlock()
		if v < high {
			return
		}
		high = v
		fn(v, total)
	}
	clamp := func(done int64) int64 {
		if done < 0 {
			return 0
		}
		if done > space {
			return space
		}
		return done
	}
	pricing = optimize.WithProgress(ctx, func(done, _ int64) { report(clamp(done)) })
	solver = optimize.WithProgress(ctx, func(done, _ int64) { report(space + clamp(done)) })
	return pricing, solver
}

// doubleProgress re-scopes a caller's WithSearchProgress hook over the
// fused single-pass Recommend: the one streaming enumeration covers
// both halves of the combined 2·space bar (each candidate is priced
// and searched at once), so reports scale by two and watchers see the
// same space and completion point as the two-pass shape.
func doubleProgress(ctx context.Context, space int64) context.Context {
	fn := optimize.ContextProgress(ctx)
	if fn == nil {
		return ctx
	}
	total := 2 * space
	return optimize.WithProgress(ctx, func(done, _ int64) {
		d := 2 * done
		if d > total {
			d = total
		}
		fn(d, total)
	})
}

// WithStrategyReport attaches a hook that hears which concrete solver
// strategy the search resolved to — for "auto" requests, the strategy
// the heuristic picked. It fires once per solver pass, before the
// enumeration starts, which is how the async job surface echoes the
// choice into live progress.
func WithStrategyReport(ctx context.Context, fn func(strategy string)) context.Context {
	return optimize.WithStrategyReport(ctx, fn)
}

// SearchStats reports how much work the Section III.C search saved
// relative to exhaustive enumeration, and which solver did it.
type SearchStats struct {
	// SpaceSize is k^n, the total number of permutations.
	SpaceSize int `json:"space_size"`

	// Evaluated is how many permutations the search priced.
	Evaluated int `json:"evaluated"`

	// Skipped is how many permutations were resolved without pricing
	// (supersets of an SLA-meeting permutation, or completions of a
	// dominated frontier state).
	Skipped int `json:"skipped"`

	// CoverLookups is how many superset-index lookups the search
	// performed (zero for the exhaustive strategy).
	CoverLookups int `json:"cover_lookups"`

	// Clipped is how many permutations were clipped specifically by a
	// covering SLA-meeting assignment (the pruned search).
	Clipped int `json:"clipped"`

	// Strategy is the concrete solver that ran: "auto" requests and
	// the retired aliases echo what they resolved to.
	Strategy string `json:"strategy"`

	// Approximate reports a frontier run that a budget or its state
	// cap stopped early, answering with a certified incumbent: the
	// fields below are populated only then, and omitted entirely for
	// exact runs.
	Approximate bool `json:"approximate,omitempty"`

	// Bound is the certified admissible lower bound on the optimal
	// monthly TCO an approximate run proved.
	Bound cost.Money `json:"bound,omitempty"`

	// Gap is the certified relative optimality gap,
	// (incumbent − bound) / bound; 0 means proven optimal. Infinite
	// when the run could not prove any positive bound (wire layers omit
	// it then).
	Gap float64 `json:"gap,omitempty"`

	// Optimal reports that an approximate run closed its gap to zero —
	// the incumbent is a proven optimum despite the early stop.
	Optimal bool `json:"optimal,omitempty"`

	// BudgetExhausted reports that the run stopped on its wall-clock or
	// evaluation budget rather than finishing its enumeration.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// Recommendation is the brokerage's answer: every option card plus the
// two recommendations the paper derives (minimum TCO, and minimum
// slippage risk) and the savings against the incumbent.
type Recommendation struct {
	// System is the base architecture's name.
	System string `json:"system"`

	// Provider is the hosting cloud.
	Provider string `json:"provider"`

	// SLA echoes the contractual target.
	SLA cost.SLA `json:"sla"`

	// Cards lists every solution option in presentation order.
	Cards []OptionCard `json:"cards"`

	// BestOption is the 1-based option number with minimum TCO —
	// Equation 6's OptCh, the broker's recommendation.
	BestOption int `json:"best_option"`

	// MinRiskOption is the 1-based option number of the cheapest card
	// whose expected uptime meets the SLA (zero expected penalty), or 0
	// when no card meets the SLA. This is the paper's "if the
	// possibility of slippage penalty is to be minimized" alternative.
	MinRiskOption int `json:"min_risk_option"`

	// AsIsOption is the 1-based option number matching the request's
	// incumbent plan, or 0 when no as-is plan was supplied.
	AsIsOption int `json:"as_is_option"`

	// SavingsFraction is 1 − TCO(best)/TCO(as-is), or 0 without an
	// as-is plan. The case study reports ≈ 0.62.
	SavingsFraction float64 `json:"savings_fraction"`

	// Search reports the solver's effort statistics.
	Search SearchStats `json:"search"`
}

// Card returns the 1-based option card.
func (r *Recommendation) Card(option int) (OptionCard, error) {
	if option < 1 || option > len(r.Cards) {
		return OptionCard{}, fmt.Errorf("broker: option %d out of range [1, %d]", option, len(r.Cards))
	}
	return r.Cards[option-1], nil
}

// Best returns the minimum-TCO card.
func (r *Recommendation) Best() OptionCard { return r.Cards[r.BestOption-1] }

// priceState is one pricing worker's running fold over the candidates
// it visited: the positions of the best-TCO, cheapest-SLA-meeting and
// as-is cards. Position ties break toward the lower presentation
// position, which makes the cross-worker merge deterministic — the
// folded outcome is identical to a sequential presentation-order scan
// regardless of how candidates land on workers.
type priceState struct {
	bestPos   int
	bestTCO   cost.Money
	minRisk   int
	minRiskHA cost.Money
	asIs      int
}

// fold merges another worker's state into s.
func (s *priceState) fold(o priceState) {
	if o.bestPos >= 0 && (s.bestPos < 0 || o.bestTCO < s.bestTCO || (o.bestTCO == s.bestTCO && o.bestPos < s.bestPos)) {
		s.bestPos, s.bestTCO = o.bestPos, o.bestTCO
	}
	if o.minRisk >= 0 && (s.minRisk < 0 || o.minRiskHA < s.minRiskHA || (o.minRiskHA == s.minRiskHA && o.minRisk < s.minRisk)) {
		s.minRisk, s.minRiskHA = o.minRisk, o.minRiskHA
	}
	if o.asIs >= 0 {
		s.asIs = o.asIs
	}
}

// recommend runs the search for one normalized request. The context
// is observed throughout the compile-enumerate loop: cancelling it
// aborts the permutation pricing mid-run with ctx.Err(). The exported
// entry point is Recommend (cache.go), which layers normalization and
// the result cache on top.
//
// The pricing pass streams: each candidate is priced once on the
// compiled incremental evaluator and written straight into its
// presentation-order card slot (positions come from the combinatorial
// ranker, so parallel shards write disjoint slots), with the best-TCO
// and min-risk incumbents folded online — no materialized candidate
// slice, no order permutation, no sort pass. When the requested
// strategy resolves to exhaustive (auto does on spaces of at most 2^10
// candidates), the search IS the pricing pass, so the solver pass is
// skipped entirely and its statistics fall out of the stream; any
// other strategy runs its own search for the effort statistics. Both
// shapes report one combined monotone progress space of 2·k^n.
func (e *Engine) recommend(ctx context.Context, req Request) (*Recommendation, error) {
	start := time.Now()
	c, err := e.compile(req)
	if err != nil {
		return nil, err
	}
	// The pricing pass holds one card per candidate, so Recommend keeps
	// the MaxCandidates cap the frontier DP itself does not need.
	if err := c.problem.Validate(); err != nil {
		return nil, fmt.Errorf("broker: compiled problem invalid: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	asIsAssignment, err := c.assignmentForPlan(req.AsIs)
	if err != nil {
		return nil, err
	}
	cfg := req.Solver
	cfg.Strategy = e.strategyFor(req)
	resolved, err := optimize.ResolveConfig(c.problem, cfg)
	if err != nil {
		return nil, err
	}

	space := c.problem.SpaceSize()
	cards := make([]OptionCard, space)
	rk := newRanker(c.problem)

	// fork hands each pricing worker its own fold state; the states
	// are merged once the stream (and with it every worker) is done.
	var mu sync.Mutex
	var states []*priceState
	fork := func() func(*optimize.Cursor) error {
		st := &priceState{bestPos: -1, minRisk: -1, asIs: -1}
		mu.Lock()
		states = append(states, st)
		mu.Unlock()
		return func(cur *optimize.Cursor) error {
			a := cur.Assignment()
			pos := rk.position(a)
			tco := cur.TCO()
			uptime := cur.Uptime()
			total := tco.Total()
			meets := cur.MeetsSLA()
			cards[pos] = OptionCard{
				Option:        pos + 1,
				Choices:       c.choicesFor(a),
				HACost:        tco.HA,
				Uptime:        uptime,
				SlippageHours: req.SLA.SlippageHoursPerMonth(uptime),
				Penalty:       tco.ExpectedPenalty,
				TCO:           total,
				MeetsSLA:      meets,
			}
			if st.bestPos < 0 || total < st.bestTCO || (total == st.bestTCO && pos < st.bestPos) {
				st.bestPos, st.bestTCO = pos, total
			}
			if meets && (st.minRisk < 0 || tco.HA < st.minRiskHA || (tco.HA == st.minRiskHA && pos < st.minRisk)) {
				st.minRisk, st.minRiskHA = pos, tco.HA
			}
			if asIsAssignment != nil && sameAssignment(a, asIsAssignment) {
				st.asIs = pos
			}
			return nil
		}
	}
	runPricing := func(pctx context.Context) error {
		if e.parallelPricingFor(req, space) {
			return c.problem.ParallelStreamContext(pctx, 0, fork)
		}
		return c.problem.StreamContext(pctx, fork())
	}

	rec := &Recommendation{
		System:   req.Base.Name,
		Provider: req.Base.Provider,
		SLA:      req.SLA,
		Cards:    cards,
		Search:   SearchStats{SpaceSize: space},
	}

	fused := resolved == optimize.StrategyExhaustive && cfg.Budget.IsZero()
	if fused {
		// Fused: the exhaustive search is the pricing pass, so one
		// streaming enumeration serves both and its statistics are
		// known by construction. Progress maps onto the combined 2·k^n
		// space watchers already expect, and the strategy hook still
		// hears the resolved choice. A budgeted run takes the two-pass
		// shape instead, so SolveConfig owns the budget semantics
		// (deadline for exact strategies, refusal of an evaluation cap).
		optimize.ReportStrategy(ctx, resolved)
		if err := runPricing(doubleProgress(ctx, int64(space))); err != nil {
			return nil, err
		}
		rec.Search.Evaluated = space
		rec.Search.Strategy = resolved
	} else {
		pricingCtx, solverCtx := splitProgress(ctx, int64(space))
		if err := runPricing(pricingCtx); err != nil {
			return nil, err
		}
		searched, err := optimize.SolveConfig(solverCtx, c.problem, cfg)
		if err != nil {
			return nil, err
		}
		rec.Search.Evaluated = searched.Evaluated
		rec.Search.Skipped = searched.Skipped
		rec.Search.CoverLookups = searched.CoverLookups
		rec.Search.Clipped = searched.Clipped
		rec.Search.Strategy = searched.Strategy
		rec.Search.Approximate = searched.Approximate
		rec.Search.Bound = searched.Bound
		rec.Search.Gap = searched.Gap
		rec.Search.Optimal = searched.Optimal
		rec.Search.BudgetExhausted = searched.BudgetExhausted
	}

	merged := priceState{bestPos: -1, minRisk: -1, asIs: -1}
	for _, st := range states {
		merged.fold(*st)
	}

	rec.BestOption = merged.bestPos + 1
	if merged.minRisk >= 0 {
		rec.MinRiskOption = merged.minRisk + 1
	}
	if merged.asIs >= 0 {
		rec.AsIsOption = merged.asIs + 1
	}
	// Savings against the incumbent. Two edges are pinned to exactly
	// zero rather than left to the division: the incumbent already
	// being the optimum (recommending what the customer runs saves
	// nothing, and float noise must not report otherwise), and a
	// zero-TCO incumbent (nothing to save from; the ratio would be
	// undefined).
	if rec.AsIsOption > 0 && rec.AsIsOption != rec.BestOption {
		asIs := cards[rec.AsIsOption-1]
		if asIs.TCO > 0 {
			rec.SavingsFraction = 1 - float64(cards[merged.bestPos].TCO)/float64(asIs.TCO)
		}
	}
	if m := e.metrics.Load(); m != nil {
		// One bulk observation per run (the pricing pass plus, for
		// pruning strategies, the solver's own evaluations) — the
		// per-candidate loop above stays uninstrumented by design.
		evals := int64(space)
		if !fused {
			evals += int64(rec.Search.Evaluated)
		}
		m.observeRun(rec.Search, evals, time.Since(start).Seconds())
	}
	return rec, nil
}

// choicesFor maps an assignment back to component/tech pairs.
func (c *compiled) choicesFor(a optimize.Assignment) []Choice {
	out := make([]Choice, len(a))
	for i, v := range a {
		out[i] = Choice{Component: c.names[i], TechID: c.techIDs[i][v]}
	}
	return out
}

// assignmentForPlan converts a Plan into an assignment, or nil for a
// nil plan. Unknown technology IDs (not among the component's variants)
// are an error: the incumbent must be expressible in the option space
// to be comparable.
func (c *compiled) assignmentForPlan(p Plan) (optimize.Assignment, error) {
	if p == nil {
		return nil, nil
	}
	a := make(optimize.Assignment, len(c.names))
	for i, name := range c.names {
		want := p[name]
		found := false
		for v, id := range c.techIDs[i] {
			if id == want {
				a[i] = v
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("broker: as-is plan uses %q on %q, which is not among the allowed options", want, name)
		}
	}
	return a, nil
}

func haCount(a optimize.Assignment) int {
	n := 0
	for _, v := range a {
		if v != 0 {
			n++
		}
	}
	return n
}

func sameAssignment(a, b optimize.Assignment) bool {
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
