package broker_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/scenario"
	"uptimebroker/internal/topology"
)

// listing pages through Engine.Cards and returns the request's whole
// presentation-order card list.
func listing(t *testing.T, e *broker.Engine, req broker.Request) []broker.OptionCard {
	t.Helper()
	var all []broker.OptionCard
	for offset := 0; ; offset += broker.MaxCards {
		page, space, err := e.Cards(context.Background(), req, offset, broker.MaxCards)
		if err != nil {
			t.Fatalf("Cards(%d): %v", offset, err)
		}
		all = append(all, page...)
		if offset+broker.MaxCards >= space {
			return all
		}
	}
}

// withTerms returns req under a different SLA target and penalty.
func withTerms(req broker.Request, slaPercent, penaltyUSD float64) broker.Request {
	req.SLA = cost.SLA{UptimePercent: slaPercent, Penalty: cost.Penalty{PerHour: cost.Dollars(penaltyUSD)}}
	return req
}

// symmetricRequest is n identical single-node compute components with
// one HA technology each: every assignment on a level prices alike up
// to rounding in the fold, the shape where tie rules part.
func symmetricRequest(n int, slaPercent, penaltyUSD float64) broker.Request {
	comps := make([]topology.Component, n)
	allowed := make(map[string][]string, n)
	for i := range comps {
		name := fmt.Sprintf("c%02d", i)
		comps[i] = topology.Component{Name: name, Layer: topology.LayerCompute, ActiveNodes: 1}
		allowed[name] = []string{catalog.TechESXHA}
	}
	return withTerms(broker.Request{
		Base:         topology.System{Name: fmt.Sprintf("symmetric-%d", n), Provider: catalog.ProviderSoftLayerSim, Components: comps},
		AllowedTechs: allowed,
	}, slaPercent, penaltyUSD)
}

// scenarioPairs is every provider-parameterized built-in scenario on
// each catalog provider, plus the provider-fixed case study once.
func scenarioPairs() []broker.Request {
	var out []broker.Request
	for _, p := range []string{catalog.ProviderSoftLayerSim, catalog.ProviderNimbus, catalog.ProviderStratus} {
		for _, sc := range scenario.All(p) {
			if sc.Name != "casestudy" {
				out = append(out, sc.Request)
			}
		}
	}
	return append(out, scenario.PaperCaseStudy().Request)
}

// TestRecommendMatchesListingRule holds Recommend's answer — best,
// min-risk and as-is options, savings and the cards themselves — to
// the cards' selection rule applied to the full Engine.Cards listing,
// an enumeration independent of the search. It covers the 156 repeated
// scenario keys (13 scenario pairs × 4 SLA targets × 3 penalties), 400
// fresh scenario terms, and the symmetric shapes from n=8 to n=14.
func TestRecommendMatchesListingRule(t *testing.T) {
	cat := catalog.Default()
	e, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, req broker.Request) {
		t.Helper()
		rec, err := e.Recommend(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rule := broker.CardsRule{AsIs: req.AsIs}
		for _, card := range listing(t, e, req) {
			rule.Add(card)
		}
		if err := rule.Check(rec); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	pairs := scenarioPairs()
	keys := 0
	for _, req := range pairs {
		for _, sla := range []float64{95, 98, 99, 99.5} {
			for _, pen := range []float64{40, 100, 250} {
				check(fmt.Sprintf("%s on %s at %v%%/$%v", req.Base.Name, req.Base.Provider, sla, pen), withTerms(req, sla, pen))
				keys++
			}
		}
	}
	if keys != 156 {
		t.Fatalf("covered %d scenario keys, want 156", keys)
	}

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		req := pairs[rng.Intn(len(pairs))]
		sla := 95 + float64(rng.Intn(490))/100
		pen := float64(20 + rng.Intn(381))
		check(fmt.Sprintf("fresh %d: %s at %v%%/$%v", i, req.Base.Name, sla, pen), withTerms(req, sla, pen))
	}

	for n := 8; n <= 14; n++ {
		for _, sla := range []float64{90, 95, 98, 99} {
			for _, pen := range []float64{60, 200} {
				check(fmt.Sprintf("symmetric n=%d at %v%%/$%v", n, sla, pen), symmetricRequest(n, sla, pen))
			}
		}
	}
}
