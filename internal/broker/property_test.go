package broker_test

import (
	"context"
	"math/rand"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/scenario"
)

// TestPropertyRecommendationInvariants runs the full brokerage over
// randomly generated architectures and checks the structural
// guarantees every recommendation must satisfy.
func TestPropertyRecommendationInvariants(t *testing.T) {
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}

	cfg := scenario.DefaultGenerator()
	cfg.MaxComponents = 5 // keep spaces small enough for 80 full runs
	rng := rand.New(rand.NewSource(20170612))

	for trial := 0; trial < 80; trial++ {
		req, err := scenario.Generate(cfg, rng, catalog.ProviderSoftLayerSim)
		if err != nil {
			t.Fatalf("trial %d: Generate: %v", trial, err)
		}
		rec, err := engine.Recommend(context.Background(), req)
		if err != nil {
			t.Fatalf("trial %d: Recommend: %v", trial, err)
		}
		cards := listing(t, engine, req)

		if len(cards) != rec.Search.SpaceSize {
			t.Fatalf("trial %d: %d cards for space %d", trial, len(cards), rec.Search.SpaceSize)
		}
		if rec.Search.Evaluated+rec.Search.Skipped != rec.Search.SpaceSize {
			t.Fatalf("trial %d: search accounting %d+%d != %d",
				trial, rec.Search.Evaluated, rec.Search.Skipped, rec.Search.SpaceSize)
		}

		best := rec.Best()
		for i, card := range cards {
			// Option numbering is 1-based, dense and ordered.
			if card.Option != i+1 {
				t.Fatalf("trial %d: listing entry %d is option %d", trial, i, card.Option)
			}
			// Equation 5 decomposition holds on every card.
			if card.TCO != card.HACost+card.Penalty {
				t.Fatalf("trial %d option %d: TCO decomposition broke", trial, card.Option)
			}
			// The recommendation is a true minimum.
			if card.TCO < best.TCO {
				t.Fatalf("trial %d: option %d (%v) beats the recommendation (%v)",
					trial, card.Option, card.TCO, best.TCO)
			}
			// Zero penalty iff the SLA is met.
			if card.MeetsSLA != (card.Penalty == 0) {
				t.Fatalf("trial %d option %d: MeetsSLA=%v with penalty %v",
					trial, card.Option, card.MeetsSLA, card.Penalty)
			}
		}

		// MinRisk is the cheapest SLA-meeting card, when one exists.
		if rec.MinRiskOption > 0 {
			minRisk := cards[rec.MinRiskOption-1]
			if !minRisk.MeetsSLA {
				t.Fatalf("trial %d: min-risk option misses the SLA", trial)
			}
			for _, card := range cards {
				if card.MeetsSLA && card.HACost < minRisk.HACost {
					t.Fatalf("trial %d: option %d undercuts min-risk", trial, card.Option)
				}
			}
		} else {
			for _, card := range cards {
				if card.MeetsSLA {
					t.Fatalf("trial %d: option %d meets SLA but MinRiskOption=0", trial, card.Option)
				}
			}
		}

		// The frontier is a subset of the cards with the extremes on it.
		front := broker.ParetoCards(cards)
		if len(front) == 0 || len(front) > len(cards) {
			t.Fatalf("trial %d: frontier size %d", trial, len(front))
		}
	}
}

// TestPropertyOptionOrderIsLevelThenLex verifies the paper's
// presentation numbering on generated instances: HA count ascending,
// then lexicographic.
func TestPropertyOptionOrderIsLevelThenLex(t *testing.T) {
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	cards := listing(t, engine, broker.FutureWork(catalog.ProviderSoftLayerSim))
	level := func(c broker.OptionCard) int {
		n := 0
		for _, ch := range c.Choices {
			if ch.TechID != "" {
				n++
			}
		}
		return n
	}
	for i := 1; i < len(cards); i++ {
		if level(cards[i]) < level(cards[i-1]) {
			t.Fatalf("cards %d->%d: level decreased", cards[i-1].Option, cards[i].Option)
		}
	}
	if level(cards[0]) != 0 {
		t.Fatal("first card is not the no-HA baseline")
	}
	if level(cards[len(cards)-1]) != len(cards[0].Choices) {
		t.Fatal("last card is not the full-HA option")
	}
}
