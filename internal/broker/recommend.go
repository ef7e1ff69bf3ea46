package broker

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
// context: the search underneath Recommend and Pareto reports
// (candidates accounted for, k^n) through it on a fixed cadence, one
// monotone pass that ends at k^n.
func WithSearchProgress(ctx context.Context, fn func(evaluated, spaceSize int64)) context.Context {
	return optimize.WithProgress(ctx, fn)
}

// WithStrategyReport attaches a hook that hears which concrete solver
// strategy the search resolved to — for "auto" requests, frontier. It
// fires once per search, before the search starts, which is how the
// async job surface echoes the choice into live progress.
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

// MaxCards caps one card listing (Engine.Cards): a v1 response's full
// list and one v2 page alike. Paper-sized spaces fit whole; the
// largest built-in scenario compiles to 135 options.
const MaxCards = 1 << 10

// ErrCardCap reports a card listing longer than MaxCards: the request
// is valid, but its answer would be too large to list in one piece.
var ErrCardCap = errors.New("broker: card listing exceeds the card cap")

// Recommendation is the brokerage's answer: the two recommendations
// the paper derives (minimum TCO, and minimum slippage risk), the
// incumbent's card and the savings against it. Engine.Cards lists any
// other option card on demand.
type Recommendation struct {
	// System is the base architecture's name.
	System string `json:"system"`

	// Provider is the hosting cloud.
	Provider string `json:"provider"`

	// SLA echoes the contractual target.
	SLA cost.SLA `json:"sla"`

	// Cards holds the distinct best, min-risk and as-is cards, in
	// option order.
	Cards []OptionCard `json:"cards"`

	// BestOption is the 1-based option number with minimum TCO —
	// Equation 6's OptCh, the broker's recommendation. Ties go to the
	// lowest option number.
	BestOption int `json:"best_option"`

	// MinRiskOption is the 1-based option number of the cheapest card
	// whose expected uptime meets the SLA (zero expected penalty), or 0
	// when no card meets the SLA. This is the paper's "if the
	// possibility of slippage penalty is to be minimized" alternative.
	// Ties go to the lowest option number.
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

// Card returns the card of a 1-based option the answer carries: the
// best, min-risk or as-is option.
func (r *Recommendation) Card(option int) (OptionCard, error) {
	for _, c := range r.Cards {
		if c.Option == option {
			return c, nil
		}
	}
	return OptionCard{}, fmt.Errorf("broker: option %d is not among the answer's cards (list it with Engine.Cards)", option)
}

// Best returns the minimum-TCO card.
func (r *Recommendation) Best() OptionCard {
	c, _ := r.Card(r.BestOption)
	return c
}

// recommend runs the search for one normalized request. The context
// is observed throughout: cancelling it aborts the search with
// ctx.Err(). The exported entry point is Recommend (cache.go), which
// layers normalization and the result cache on top.
//
// No card is priced beyond the answer's: the search picks the best
// and min-risk assignments under the cards' own rule (lowest TCO, or
// lowest HA cost among SLA-meeting cards, each tie to the lowest
// option number — see optimize.SolvePresentation), and the as-is card
// is one Evaluate. So the space is capped only by the search itself:
// frontier takes any shape up to the optimizer's ceiling, exhaustive
// and pruned keep optimize.MaxCandidates.
func (e *Engine) recommend(ctx context.Context, req Request) (*Recommendation, error) {
	start := time.Now()
	c, err := e.compile(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	asIs, err := c.assignmentForPlan(req.AsIs)
	if err != nil {
		return nil, err
	}
	cfg := req.Solver
	cfg.Strategy = e.strategyFor(req)
	rec, err := c.recommend(e.withFolds(ctx), cfg, asIs)
	if err != nil {
		return nil, err
	}
	rec.System, rec.Provider = req.Base.Name, req.Base.Provider
	if m := e.metrics.Load(); m != nil {
		m.observeRun(rec.Search, time.Since(start).Seconds())
	}
	return rec, nil
}

// recommend searches the compiled space and builds the answer's cards;
// asIs is the incumbent's assignment, or nil.
func (c *compiled) recommend(ctx context.Context, cfg optimize.SolverConfig, asIs optimize.Assignment) (*Recommendation, error) {
	res, err := optimize.SolvePresentation(ctx, c.problem, cfg)
	if err != nil {
		return nil, err
	}
	rk := newRanker(c.problem)
	best := c.card(rk, res.Best)
	rec := &Recommendation{
		SLA:        c.problem.SLA,
		Cards:      []OptionCard{best},
		BestOption: best.Option,
		Search: SearchStats{
			SpaceSize:       c.problem.SpaceSize(),
			Evaluated:       res.Evaluated,
			Skipped:         res.Skipped,
			CoverLookups:    res.CoverLookups,
			Clipped:         res.Clipped,
			Strategy:        res.Strategy,
			Approximate:     res.Approximate,
			Bound:           res.Bound,
			Gap:             res.Gap,
			Optimal:         res.Optimal,
			BudgetExhausted: res.BudgetExhausted,
		},
	}
	if res.NoPenaltyFound {
		minRisk := c.card(rk, res.BestNoPenalty)
		rec.MinRiskOption = minRisk.Option
		rec.addCard(minRisk)
	}
	if asIs != nil {
		cand, err := c.problem.Evaluate(asIs)
		if err != nil {
			return nil, err
		}
		card := c.card(rk, cand)
		rec.AsIsOption = card.Option
		rec.addCard(card)
		// Savings against the incumbent. Two edges are pinned to
		// exactly zero rather than left to the division: the incumbent
		// already being the optimum (recommending what the customer
		// runs saves nothing, and float noise must not report
		// otherwise), and a zero-TCO incumbent (nothing to save from;
		// the ratio would be undefined).
		if card.Option != best.Option && card.TCO > 0 {
			rec.SavingsFraction = 1 - float64(best.TCO)/float64(card.TCO)
		}
	}
	return rec, nil
}

// addCard inserts a card in option order unless the answer already
// carries its option.
func (r *Recommendation) addCard(card OptionCard) {
	i, found := slices.BinarySearchFunc(r.Cards, card.Option, func(c OptionCard, option int) int {
		return cmp.Compare(c.Option, option)
	})
	if !found {
		r.Cards = slices.Insert(r.Cards, i, card)
	}
}

// Cards lists the option cards at presentation positions [offset,
// offset+limit) of the request's space — option numbers offset+1
// onward — together with the space size. Each card is built on demand
// by unranking its position and evaluating that one assignment, so a
// page costs O(limit·n) whatever the space. A page past the end is
// empty; limit may not exceed MaxCards (ErrCardCap). The request is
// validated exactly as Recommend validates it, as-is plan included,
// but no search runs and nothing is cached.
func (e *Engine) Cards(ctx context.Context, req Request, offset, limit int) ([]OptionCard, int, error) {
	if offset < 0 || limit < 0 {
		return nil, 0, fmt.Errorf("broker: negative card offset %d or limit %d", offset, limit)
	}
	if limit > MaxCards {
		return nil, 0, fmt.Errorf("%w: %d cards requested, at most %d per listing", ErrCardCap, limit, MaxCards)
	}
	req = e.normalize(req)
	c, err := e.compile(req)
	if err != nil {
		return nil, 0, err
	}
	if _, err := c.assignmentForPlan(req.AsIs); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	cards, err := c.cards(offset, limit)
	if err != nil {
		return nil, 0, err
	}
	return cards, c.problem.SpaceSize(), nil
}

// cards builds the cards at presentation positions [offset,
// offset+limit), clipped to the space.
func (c *compiled) cards(offset, limit int) ([]OptionCard, error) {
	end := c.problem.SpaceSize()
	if offset < end && limit < end-offset {
		end = offset + limit
	}
	rk := newRanker(c.problem)
	var cards []OptionCard
	for pos := offset; pos < end; pos++ {
		cand, err := c.problem.Evaluate(rk.unrank(pos))
		if err != nil {
			return nil, err
		}
		cards = append(cards, c.card(rk, cand))
	}
	return cards, nil
}

// card builds the option card of a priced candidate.
func (c *compiled) card(rk *ranker, cand optimize.Candidate) OptionCard {
	sla := c.problem.SLA
	return OptionCard{
		Option:        rk.position(cand.Assignment) + 1,
		Choices:       c.choicesFor(cand.Assignment),
		HACost:        cand.TCO.HA,
		Uptime:        cand.Uptime,
		SlippageHours: sla.SlippageHoursPerMonth(cand.Uptime),
		Penalty:       cand.TCO.ExpectedPenalty,
		TCO:           cand.TCO.Total(),
		MeetsSLA:      cand.MeetsSLA(sla),
	}
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
