package main

import (
	"context"
	"fmt"
	"math"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/optimize"
)

// expectation is an op's correct answer. levelStart is set for a
// symmetric shape: every assignment on a level prices alike (up to
// float rounding in the fold order), so an option is checked by the
// level it lies on rather than by its number within the level.
type expectation struct {
	ans        *answer
	levelStart []int // levelStart[m] is the first 0-based option on level m; len n+2
}

// oracle computes expected answers outside the timed phase: an
// uncached in-process engine on the exhaustive strategy for scenario
// requests, and a closed form for symmetric shapes.
type oracle struct {
	engine *broker.Engine
	memo   map[string]expectation
}

func newOracle() (*oracle, error) {
	cat := catalog.Default()
	e, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		return nil, err
	}
	return &oracle{engine: e, memo: map[string]expectation{}}, nil
}

// check reports whether got is the correct answer to o.
func (or *oracle) check(o op, got *answer) error {
	want, err := or.expect(o)
	if err != nil {
		return err
	}
	if got == nil {
		return fmt.Errorf("no answer")
	}
	if want.levelStart != nil && got.approximate {
		return checkCertificate(want, got)
	}
	if got.approximate != want.ans.approximate {
		return fmt.Errorf("approximate = %v, want %v", got.approximate, want.ans.approximate)
	}
	if want.ans.front != nil {
		return checkFront(want, got)
	}
	if err := sameOption("best", want, got.best, want.ans.best); err != nil {
		return err
	}
	if err := sameOption("min-risk", want, got.minRisk, want.ans.minRisk); err != nil {
		return err
	}
	if got.asIs != want.ans.asIs {
		return fmt.Errorf("as-is option %d, want %d", got.asIs, want.ans.asIs)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"best TCO", got.bestTCO, want.ans.bestTCO},
		{"min-risk TCO", got.minRiskTCO, want.ans.minRiskTCO},
		{"as-is TCO", got.asIsTCO, want.ans.asIsTCO},
		{"savings percent", got.savings, want.ans.savings},
	} {
		if !near(f.got, f.want) {
			return fmt.Errorf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// expect returns (and memoizes) the correct answer to o.
func (or *oracle) expect(o op) (expectation, error) {
	frontier := routeKind(o) == httpapi.JobKindPareto
	key := fmt.Sprintf("%v|%s", frontier, o.body)
	if e, ok := or.memo[key]; ok {
		return e, nil
	}
	wire, err := wireRequest(o)
	if err != nil {
		return expectation{}, err
	}
	var e expectation
	if o.shape > 0 {
		e, err = or.symmetric(wire, o.shape, frontier)
	} else if frontier {
		err = fmt.Errorf("no oracle for a scenario frontier")
	} else {
		e, err = or.exhaustive(wire)
	}
	if err != nil {
		return expectation{}, fmt.Errorf("oracle: %w", err)
	}
	or.memo[key] = e
	return e, nil
}

// exhaustive answers a scenario request on an uncached engine with the
// exhaustive strategy, converted to wire form as the server does.
func (or *oracle) exhaustive(wire httpapi.RecommendationRequest) (expectation, error) {
	req := wire.ToBroker()
	req.Strategy = ""
	req.Solver = optimize.SolverConfig{Strategy: optimize.StrategyExhaustive}
	rec, err := or.engine.Recommend(context.Background(), req)
	if err != nil {
		return expectation{}, err
	}
	return expectation{ans: summarize(httpapi.FromRecommendation(rec))}, nil
}

// symmetric is the closed form for n identical components with one HA
// variant each. An assignment's price depends only on its level m
// (how many components are clustered), so n+1 Evaluate calls give
// every level's uptime and TCO: the optimum is the cheapest level, the
// min-risk answer the lowest level meeting the SLA, and the frontier
// one card per level. Evaluate applies no space cap, so this also
// covers shapes the exact lane refuses.
func (or *oracle) symmetric(wire httpapi.RecommendationRequest, n int, frontier bool) (expectation, error) {
	one := wire
	one.Base.Components = wire.Base.Components[:1]
	name := one.Base.Components[0].Name
	one.AllowedTechs = map[string][]string{name: wire.AllowedTechs[name]}
	one.Solver = nil
	p1, err := or.engine.Compile(one.ToBroker())
	if err != nil {
		return expectation{}, err
	}
	variants := p1.Components[0].Variants
	if len(variants) != 2 {
		return expectation{}, fmt.Errorf("symmetric shape compiled to %d variants, want 2", len(variants))
	}
	p := &optimize.Problem{SLA: p1.SLA, Components: make([]optimize.ComponentChoices, n)}
	for i := range p.Components {
		p.Components[i] = optimize.ComponentChoices{Name: fmt.Sprintf("c%02d", i), Variants: variants}
	}

	levelStart := make([]int, n+2)
	for m := 0; m <= n; m++ {
		levelStart[m+1] = levelStart[m] + binomial(n, m)
	}
	ans := &answer{gap: -1}
	bestTotal := math.Inf(1)
	bestLevel, riskLevel := -1, -1
	for m := 0; m <= n; m++ {
		// The first assignment of level m in presentation order
		// clusters the last m components.
		a := make(optimize.Assignment, n)
		for j := n - m; j < n; j++ {
			a[j] = 1
		}
		c, err := p.Evaluate(a)
		if err != nil {
			return expectation{}, err
		}
		total := c.TCO.Total().Dollars()
		if total < bestTotal {
			bestTotal, bestLevel = total, m
		}
		if riskLevel < 0 && c.MeetsSLA(p.SLA) {
			riskLevel = m
			ans.minRisk = levelStart[m] + 1
			ans.minRiskTCO = total
		}
		ans.front = append(ans.front, frontCard{
			option: levelStart[m] + 1,
			haCost: c.TCO.HA.Dollars(),
			uptime: c.Uptime * 100,
			tco:    total,
		})
	}
	ans.best = levelStart[bestLevel] + 1
	ans.bestTCO = bestTotal
	if !frontier {
		ans.front = nil
	}
	return expectation{ans: ans, levelStart: levelStart}, nil
}

// sameOption compares option numbers exactly, or by level on a
// symmetric shape.
func sameOption(what string, want expectation, got, wantOpt int) error {
	if want.levelStart == nil || got == 0 || wantOpt == 0 {
		if got != wantOpt {
			return fmt.Errorf("%s option %d, want %d", what, got, wantOpt)
		}
		return nil
	}
	if g, w := levelOf(want.levelStart, got), levelOf(want.levelStart, wantOpt); g != w {
		return fmt.Errorf("%s option %d is on level %d, want level %d (option %d)", what, got, g, w, wantOpt)
	}
	return nil
}

// levelOf maps a 1-based option to its level (-1 when out of range).
func levelOf(levelStart []int, option int) int {
	for m := 0; m+1 < len(levelStart); m++ {
		if option-1 >= levelStart[m] && option-1 < levelStart[m+1] {
			return m
		}
	}
	return -1
}

// checkFront compares a frontier card by card: one per level, in
// ascending HA cost.
func checkFront(want expectation, got *answer) error {
	if len(got.front) != len(want.ans.front) {
		return fmt.Errorf("frontier has %d cards, want %d", len(got.front), len(want.ans.front))
	}
	for i, w := range want.ans.front {
		g := got.front[i]
		if err := sameOption(fmt.Sprintf("frontier card %d", i), want, g.option, w.option); err != nil {
			return err
		}
		if !near(g.haCost, w.haCost) || !near(g.uptime, w.uptime) || !near(g.tco, w.tco) {
			return fmt.Errorf("frontier card %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// checkCertificate judges an approximate answer: it must carry a
// certificate (a positive bound and a finite gap, which the wire omits
// when it is infinite), its certified bound may not exceed the true
// optimum, its incumbent may not beat it, and the incumbent must lie
// within the certified gap of the bound.
func checkCertificate(want expectation, got *answer) error {
	opt := want.ans.bestTCO
	if got.gap < 0 || got.bound <= 0 {
		return fmt.Errorf("approximate answer without a certificate (bound %v, gap %v)", got.bound, got.gap)
	}
	if got.bound > opt*(1+1e-9) {
		return fmt.Errorf("certified bound %v exceeds the optimum %v", got.bound, opt)
	}
	if got.bestTCO < opt*(1-1e-9) {
		return fmt.Errorf("incumbent TCO %v beats the optimum %v", got.bestTCO, opt)
	}
	if got.bestTCO > got.bound*(1+got.gap)*(1+1e-9) {
		return fmt.Errorf("incumbent TCO %v outside the certified gap %v of bound %v", got.bestTCO, got.gap, got.bound)
	}
	return nil
}

// checkCaseStudy pins the paper's Section III anchors: option #3 is
// the TCO optimum, #5 the cheapest zero-penalty choice, and the
// recommendation saves about 62% against the as-is deployment.
func checkCaseStudy(a *answer) error {
	if a.best != 3 || a.minRisk != 5 || a.savings < 61 || a.savings > 63 {
		return fmt.Errorf("case study answered best #%d, min-risk #%d, savings %.2f%%; the paper has #3, #5, ~62%%",
			a.best, a.minRisk, a.savings)
	}
	return nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func binomial(n, k int) int {
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}
