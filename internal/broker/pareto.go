package broker

import (
	"context"
	"sort"
)

// ParetoCards filters option cards to the cost × uptime frontier: a
// card survives unless some other card offers at least the uptime for
// at most the HA cost (with one strict improvement). The frontier is
// the menu for customers negotiating SLA terms rather than accepting
// the single TCO optimum; it is returned sorted by ascending HA cost.
func ParetoCards(cards []OptionCard) []OptionCard {
	if len(cards) == 0 {
		return nil
	}
	sorted := append([]OptionCard(nil), cards...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].HACost != sorted[j].HACost {
			return sorted[i].HACost < sorted[j].HACost
		}
		if sorted[i].Uptime != sorted[j].Uptime {
			return sorted[i].Uptime > sorted[j].Uptime
		}
		// Exact cost+uptime ties keep the lowest option number, the
		// same rule the frontier DP applies.
		return sorted[i].Option < sorted[j].Option
	})
	var front []OptionCard
	bestUptime := -1.0
	for _, c := range sorted {
		if c.Uptime > bestUptime {
			front = append(front, c)
			bestUptime = c.Uptime
		}
	}
	return front
}

// pareto runs the frontier search for one normalized request; the
// exported entry point is Pareto (cache.go), which layers
// normalization and the result cache on top. The context cancels the
// search like recommend's.
//
// Nothing here needs every card: the optimizer's frontier DP returns
// the cost × uptime frontier from its last level, so the k^n space is
// never enumerated and the MaxCandidates cap does not apply (the DP's
// state cap does: optimize.ErrFrontierStateCap). The cards are exactly
// ParetoCards over the full card listing, ties to the lowest option
// number included. Progress
// hooks see the single k^n space.
func (e *Engine) pareto(ctx context.Context, req Request) ([]OptionCard, error) {
	c, err := e.compile(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The frontier itself never compares against the incumbent, but an
	// inexpressible as-is plan is still a caller mistake that must
	// surface — exactly as Recommend reports it.
	if _, err := c.assignmentForPlan(req.AsIs); err != nil {
		return nil, err
	}
	front, err := c.problem.ParetoContext(ctx)
	if err != nil || len(front) == 0 {
		return nil, err
	}
	rk := newRanker(c.problem)
	cards := make([]OptionCard, len(front))
	for i, cand := range front {
		cards[i] = c.card(rk, cand)
	}
	return cards, nil
}
