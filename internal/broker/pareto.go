package broker

import (
	"context"
	"sort"

	"uptimebroker/internal/reccache"
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

// Pareto runs the brokerage and returns only the cost × uptime
// frontier cards: exactly ParetoCards over the full card listing, ties
// to the lowest option number included. The frontier DP yields them
// from its last level, so the k^n space is never enumerated and only
// the DP's state cap applies (optimize.ErrFrontierStateCap). Progress
// hooks see the single k^n space; the context cancels the search.
//
// The answer is never stored. With a result cache attached, every call
// prices the memoized front of its architecture's cached fold under its
// own term, and a WithCacheReport hook hears that fold lookup: "miss"
// when this call ran the DP, "hit" when no search ran, "shared" when
// it joined another call's fold build.
func (e *Engine) Pareto(ctx context.Context, req Request) ([]OptionCard, error) {
	req = e.normalize(req)
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
	var status reccache.Status
	front, err := c.problem.ParetoContext(e.withFolds(ctx, &status))
	if err != nil {
		return nil, err
	}
	rk := newRanker(c.problem)
	cards := make([]OptionCard, len(front))
	for i, cand := range front {
		cards[i] = c.card(rk, cand)
	}
	reportCacheStatus(ctx, status)
	return cards, nil
}
