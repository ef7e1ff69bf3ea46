package broker

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/telemetry"
	"uptimebroker/internal/topology"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	cat := catalog.Default()
	e, err := New(cat, CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// allCards pages through Engine.Cards and returns the request's whole
// presentation-order listing.
func allCards(t *testing.T, e *Engine, req Request) []OptionCard {
	t.Helper()
	var all []OptionCard
	for offset := 0; ; offset += MaxCards {
		page, space, err := e.Cards(context.Background(), req, offset, MaxCards)
		if err != nil {
			t.Fatalf("Cards(%d): %v", offset, err)
		}
		all = append(all, page...)
		if offset+MaxCards >= space {
			return all
		}
	}
}

func TestNewValidation(t *testing.T) {
	cat := catalog.Default()
	if _, err := New(nil, CatalogParams{Catalog: cat}); err == nil {
		t.Fatal("nil catalog should fail")
	}
	if _, err := New(cat, nil); err == nil {
		t.Fatal("nil params should fail")
	}
}

func TestRequestValidate(t *testing.T) {
	req := CaseStudy()
	if err := req.Validate(); err != nil {
		t.Fatalf("case study invalid: %v", err)
	}

	bad := CaseStudy()
	bad.SLA.UptimePercent = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad SLA should fail")
	}

	bad = CaseStudy()
	bad.AsIs = Plan{"gpu": catalog.TechESXHA}
	if err := bad.Validate(); err == nil {
		t.Fatal("as-is with unknown component should fail")
	}

	bad = CaseStudy()
	bad.AllowedTechs = map[string][]string{"gpu": {catalog.TechESXHA}}
	if err := bad.Validate(); err == nil {
		t.Fatal("allowed-techs with unknown component should fail")
	}

	bad = CaseStudy()
	bad.Base.Components = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty base should fail")
	}
}

func TestCompileShape(t *testing.T) {
	e := newTestEngine(t)
	problem, err := e.Compile(CaseStudy())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := problem.SpaceSize(); got != 8 {
		t.Fatalf("case-study space = %d, want 8 (k=2, n=3)", got)
	}
	// Baseline variants carry no failover and no cost; HA variants add
	// the technology's standby nodes.
	for _, comp := range problem.Components {
		if comp.Variants[0].MonthlyCost != 0 {
			t.Fatalf("%s baseline cost = %v, want 0", comp.Name, comp.Variants[0].MonthlyCost)
		}
		if comp.Variants[0].Cluster.Tolerated != 0 {
			t.Fatalf("%s baseline tolerated = %d", comp.Name, comp.Variants[0].Cluster.Tolerated)
		}
		if comp.Variants[1].Cluster.Tolerated != 1 {
			t.Fatalf("%s HA tolerated = %d, want 1", comp.Name, comp.Variants[1].Cluster.Tolerated)
		}
		if comp.Variants[1].Cluster.Nodes != comp.Variants[0].Cluster.Nodes+1 {
			t.Fatalf("%s HA nodes = %d, want baseline+1", comp.Name, comp.Variants[1].Cluster.Nodes)
		}
	}
	// The compute tier is the paper's 3+1 ESX cluster.
	esx := problem.Components[0].Variants[1].Cluster
	if esx.Nodes != 4 || esx.Tolerated != 1 || esx.Failover != 15*time.Minute {
		t.Fatalf("ESX cluster = %+v", esx)
	}
}

func TestCompileErrors(t *testing.T) {
	e := newTestEngine(t)

	req := CaseStudy()
	req.Base.Provider = "ghost-cloud"
	if _, err := e.Compile(req); err == nil {
		t.Fatal("unknown provider should fail")
	}

	req = CaseStudy()
	req.AllowedTechs["storage"] = []string{"warp-drive"}
	if _, err := e.Compile(req); err == nil {
		t.Fatal("unknown tech should fail")
	}

	req = CaseStudy()
	req.AllowedTechs["storage"] = []string{catalog.TechESXHA} // compute tech on storage
	if _, err := e.Compile(req); err == nil {
		t.Fatal("layer-mismatched tech should fail")
	}

	req = CaseStudy()
	req.Base.Components[0].Class = "class.unpriced"
	if _, err := e.Compile(req); err == nil {
		t.Fatal("class without params should fail")
	}
}

// TestCaseStudyReproducesPaper is the headline reproduction check for
// Figure 10: option numbering per the paper, option #3 optimal, option
// #5 the min-risk choice, as-is = option #8, savings ≈ 62%.
func TestCaseStudyReproducesPaper(t *testing.T) {
	e := newTestEngine(t)
	rec, err := e.Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}

	cards := allCards(t, e, CaseStudy())
	if len(cards) != 8 {
		t.Fatalf("cards = %d, want 8", len(cards))
	}

	// Paper option numbering: #1 none, #2 network, #3 storage,
	// #4 compute, #5 storage+network, #6 compute+network,
	// #7 compute+storage, #8 all.
	wantLabels := []string{
		"none",
		"network=dual-gateway",
		"storage=raid1",
		"compute=esx-ha",
		"storage=raid1,network=dual-gateway",
		"compute=esx-ha,network=dual-gateway",
		"compute=esx-ha,storage=raid1",
		"compute=esx-ha,storage=raid1,network=dual-gateway",
	}
	for i, want := range wantLabels {
		if got := cards[i].Label(); got != want {
			t.Fatalf("option #%d label = %q, want %q", i+1, got, want)
		}
	}

	if rec.BestOption != 3 {
		t.Fatalf("BestOption = %d, want 3 (storage-only HA)", rec.BestOption)
	}
	if rec.MinRiskOption != 5 {
		t.Fatalf("MinRiskOption = %d, want 5 (storage+network)", rec.MinRiskOption)
	}
	if rec.AsIsOption != 8 {
		t.Fatalf("AsIsOption = %d, want 8 (HA everywhere)", rec.AsIsOption)
	}

	// Savings ≈ 62% (the paper says "close to 62%"; the calibrated rate
	// card must land within two points).
	if rec.SavingsFraction < 0.60 || rec.SavingsFraction > 0.64 {
		t.Fatalf("savings = %.4f, want ≈ 0.62", rec.SavingsFraction)
	}

	// The answer carries exactly the best, min-risk and as-is cards,
	// each identical to its listing entry.
	if len(rec.Cards) != 3 {
		t.Fatalf("answer carries %d cards, want 3", len(rec.Cards))
	}
	for i, option := range []int{3, 5, 8} {
		if !reflect.DeepEqual(rec.Cards[i], cards[option-1]) {
			t.Fatalf("answer card %d = %+v, listing #%d = %+v", i, rec.Cards[i], option, cards[option-1])
		}
	}

	// As-is TCO equals its HA cost (it exceeds the SLA).
	asIs := cards[7]
	if !asIs.MeetsSLA || asIs.Penalty != 0 {
		t.Fatalf("as-is card should meet the SLA with zero penalty: %+v", asIs)
	}
	if asIs.HACost != cost.Dollars(1800+350+900) {
		t.Fatalf("as-is HA cost = %v, want $3,050", asIs.HACost)
	}

	// Option #5 meets the SLA, options #1-#4 do not.
	if !cards[4].MeetsSLA {
		t.Fatal("option #5 should meet the 98% SLA")
	}
	for i := 0; i < 4; i++ {
		if cards[i].MeetsSLA {
			t.Fatalf("option #%d should not meet the SLA", i+1)
		}
	}

	// The Section III.C statistics come from the pruned search asked
	// for by name (auto runs frontier): it must have clipped the #8
	// superset of #5, and only that.
	req := CaseStudy()
	req.Strategy = optimize.StrategyPruned
	pruned, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Search.SpaceSize != 8 || pruned.Search.Evaluated != 7 || pruned.Search.Skipped != 1 {
		t.Fatalf("pruned search stats = %+v, want 7 evaluated + 1 skipped of 8", pruned.Search)
	}
}

func TestRecommendCardInternals(t *testing.T) {
	e := newTestEngine(t)
	rec, err := e.Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}

	for _, card := range allCards(t, e, CaseStudy()) {
		if card.TCO != card.HACost+card.Penalty {
			t.Fatalf("option #%d: TCO %v != HA %v + penalty %v", card.Option, card.TCO, card.HACost, card.Penalty)
		}
		if card.MeetsSLA != (card.Uptime >= rec.SLA.Target()) {
			t.Fatalf("option #%d: MeetsSLA inconsistent", card.Option)
		}
		if card.MeetsSLA && card.SlippageHours != 0 {
			t.Fatalf("option #%d: slippage hours %v with SLA met", card.Option, card.SlippageHours)
		}
		if len(card.Choices) != 3 {
			t.Fatalf("option #%d: %d choices", card.Option, len(card.Choices))
		}
	}

	best := rec.Best()
	if best.Option != rec.BestOption {
		t.Fatal("Best() disagrees with BestOption")
	}
	if _, err := rec.Card(0); err == nil {
		t.Fatal("Card(0) should fail")
	}
	if _, err := rec.Card(9); err == nil {
		t.Fatal("Card(9) should fail")
	}
	if _, err := rec.Card(1); err == nil {
		t.Fatal("Card(1) should fail: option #1 is not part of the answer")
	}
	c3, err := rec.Card(3)
	if err != nil {
		t.Fatalf("Card(3): %v", err)
	}
	plan := c3.Plan()
	if len(plan) != 1 || plan["storage"] != catalog.TechRAID1 {
		t.Fatalf("option #3 plan = %v", plan)
	}
}

func TestRecommendAsIsErrors(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.AsIs = Plan{"storage": "warp-drive"}
	if _, err := e.Recommend(context.Background(), req); err == nil {
		t.Fatal("inexpressible as-is plan should fail")
	}
}

func TestRecommendWithoutAsIs(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.AsIs = nil
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if rec.AsIsOption != 0 || rec.SavingsFraction != 0 {
		t.Fatalf("no as-is: AsIsOption=%d savings=%v", rec.AsIsOption, rec.SavingsFraction)
	}
}

func TestFutureWorkScenario(t *testing.T) {
	e := newTestEngine(t)
	req := FutureWork(catalog.ProviderSoftLayerSim)
	req.Strategy = optimize.StrategyPruned
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	// Five components; compute tiers have 3 choices (none + 2 techs),
	// middleware 2, storage 5, network 3.
	want := 3 * 3 * 2 * 5 * 3
	if rec.Search.SpaceSize != want {
		t.Fatalf("space = %d, want %d", rec.Search.SpaceSize, want)
	}
	if cards := allCards(t, e, req); len(cards) != want {
		t.Fatalf("cards = %d, want %d", len(cards), want)
	}
	if rec.BestOption < 1 || rec.BestOption > want {
		t.Fatalf("BestOption = %d", rec.BestOption)
	}
	// The 98% SLA on this system should be attainable with some HA.
	if rec.MinRiskOption == 0 {
		t.Fatal("no option meets the 98% SLA; calibration off")
	}
	// Pruning must help in a 270-option space.
	if rec.Search.Skipped == 0 {
		t.Fatal("pruned search skipped nothing in the future-work space")
	}
}

func TestTelemetryParamsPreferFreshEstimates(t *testing.T) {
	cat := catalog.Default()
	store := telemetry.NewStore()

	// Seed telemetry with a much worse storage estimate than the
	// catalog default (Down 0.02): 10% down probability.
	exposure := 10 * 365 * 24 * time.Hour
	if err := store.RecordExposure(catalog.ProviderSoftLayerSim, topology.ClassBlockVolume, exposure); err != nil {
		t.Fatal(err)
	}
	if err := store.RecordOutage(catalog.ProviderSoftLayerSim, topology.ClassBlockVolume, time.Duration(float64(exposure)*0.1)); err != nil {
		t.Fatal(err)
	}

	src := TelemetryParams{
		Store:            store,
		Fallback:         CatalogParams{Catalog: cat},
		MinExposureYears: 1,
	}

	got, err := src.NodeParams(catalog.ProviderSoftLayerSim, topology.ClassBlockVolume)
	if err != nil {
		t.Fatalf("NodeParams: %v", err)
	}
	if got.Down < 0.09 || got.Down > 0.11 {
		t.Fatalf("telemetry-backed Down = %v, want ≈ 0.10", got.Down)
	}

	// A class without telemetry falls back to the catalog.
	got, err = src.NodeParams(catalog.ProviderSoftLayerSim, topology.ClassGateway)
	if err != nil {
		t.Fatalf("NodeParams fallback: %v", err)
	}
	if got.Down != 0.0146 {
		t.Fatalf("fallback Down = %v, want catalog default 0.0146", got.Down)
	}

	// Insufficient exposure also falls back.
	thin := TelemetryParams{Store: store, Fallback: CatalogParams{Catalog: cat}, MinExposureYears: 100}
	got, err = thin.NodeParams(catalog.ProviderSoftLayerSim, topology.ClassBlockVolume)
	if err != nil {
		t.Fatalf("NodeParams thin: %v", err)
	}
	if got.Down != 0.02 {
		t.Fatalf("thin-exposure Down = %v, want catalog default 0.02", got.Down)
	}

	// No store and no fallback is an error.
	empty := TelemetryParams{}
	if _, err := empty.NodeParams("p", "c"); err == nil {
		t.Fatal("empty TelemetryParams should fail")
	}
}

func TestTelemetryShiftsRecommendation(t *testing.T) {
	// When live telemetry shows storage is actually rock-solid and
	// compute is the real risk, the recommendation should move away
	// from storage-only HA — the broker's data feedback loop matters.
	cat := catalog.Default()
	store := telemetry.NewStore()
	exposure := 20 * 365 * 24 * time.Hour

	seed := func(class string, down float64, failures int) {
		t.Helper()
		if err := store.RecordExposure(catalog.ProviderSoftLayerSim, class, exposure); err != nil {
			t.Fatal(err)
		}
		if err := store.RecordOutage(catalog.ProviderSoftLayerSim, class, time.Duration(float64(exposure)*down)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < failures-1; i++ {
			if err := store.RecordOutage(catalog.ProviderSoftLayerSim, class, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	seed(topology.ClassVirtualMachine, 0.02, 100) // compute now the dominant risk
	seed(topology.ClassBlockVolume, 0.0002, 20)   // storage nearly perfect
	seed(topology.ClassGateway, 0.0002, 20)       // network nearly perfect

	e, err := New(cat, TelemetryParams{Store: store, Fallback: CatalogParams{Catalog: cat}, MinExposureYears: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	best := rec.Best()
	plan := best.Plan()
	if _, hasStorage := plan["storage"]; hasStorage {
		t.Fatalf("with solid storage telemetry the optimum should not buy storage HA: %v", plan)
	}
	if _, hasCompute := plan["compute"]; !hasCompute {
		t.Fatalf("with flaky compute telemetry the optimum should buy compute HA: %v", plan)
	}
}

func TestRecommendationConsistentWithAvailabilityModel(t *testing.T) {
	// Spot-check card #1 (no HA) against a hand-built availability
	// system using the catalog defaults.
	cat := catalog.Default()
	e := newTestEngine(t)
	cards, _, err := e.Cards(context.Background(), CaseStudy(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	vm, _ := cat.DefaultNodeParams(catalog.ProviderSoftLayerSim, topology.ClassVirtualMachine)
	disk, _ := cat.DefaultNodeParams(catalog.ProviderSoftLayerSim, topology.ClassBlockVolume)
	gw, _ := cat.DefaultNodeParams(catalog.ProviderSoftLayerSim, topology.ClassGateway)
	sys := availability.System{Clusters: []availability.Cluster{
		{Name: "compute", Nodes: 3, NodeDown: vm.Down, FailuresPerYear: vm.FailuresPerYear},
		{Name: "storage", Nodes: 1, NodeDown: disk.Down, FailuresPerYear: disk.FailuresPerYear},
		{Name: "network", Nodes: 1, NodeDown: gw.Down, FailuresPerYear: gw.FailuresPerYear},
	}}
	want := sys.Uptime()
	got := cards[0].Uptime
	if diff := got - want; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("card #1 uptime = %v, hand-built = %v", got, want)
	}
}

func TestOptionCardLabelEdgeCases(t *testing.T) {
	c := OptionCard{Choices: []Choice{{Component: "a"}, {Component: "b"}}}
	if got := c.Label(); got != "none" {
		t.Fatalf("Label() = %q, want none", got)
	}
	c.Choices[1].TechID = "x"
	if got := c.Label(); got != "b=x" {
		t.Fatalf("Label() = %q, want b=x", got)
	}
	if !strings.Contains(OptionCard{Choices: []Choice{{Component: "a", TechID: "t1"}, {Component: "b", TechID: "t2"}}}.Label(), ",") {
		t.Fatal("multi-choice label should be comma separated")
	}
}

// TestOptionCardLabelOneAllocation: an 18-choice label is built in one
// allocation, and it reads as the choices joined by commas.
func TestOptionCardLabelOneAllocation(t *testing.T) {
	var c OptionCard
	var parts []string
	for i := 0; i < 18; i++ {
		ch := Choice{Component: fmt.Sprintf("tier-%02d", i)}
		if i%3 != 1 {
			ch.TechID = "esx-ha"
			parts = append(parts, ch.Component+"="+ch.TechID)
		}
		c.Choices = append(c.Choices, ch)
	}
	if got, want := c.Label(), strings.Join(parts, ","); got != want {
		t.Fatalf("Label() = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Label() }); allocs > 1 {
		t.Fatalf("Label() made %v allocations, want at most 1", allocs)
	}
}

// TestStrategySelection covers the three-level strategy resolution:
// request > engine default > auto, plus validation of unknown names.
func TestStrategySelection(t *testing.T) {
	cat := catalog.Default()
	ctx := context.Background()

	t.Run("unknown request strategy rejected", func(t *testing.T) {
		req := CaseStudy()
		req.Strategy = "simulated-annealing"
		if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "simulated-annealing") {
			t.Fatalf("Validate = %v, want unknown-strategy error", err)
		}
	})

	t.Run("unknown engine default rejected", func(t *testing.T) {
		if _, err := New(cat, CatalogParams{Catalog: cat}, WithDefaultStrategy("nope")); err == nil {
			t.Fatal("unknown default strategy should fail New")
		}
	})

	t.Run("request strategy echoed in search stats", func(t *testing.T) {
		e := newTestEngine(t)
		req := CaseStudy()
		req.Strategy = optimize.StrategyExhaustive
		rec, err := e.Recommend(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Search.Strategy != optimize.StrategyExhaustive {
			t.Fatalf("Search.Strategy = %q, want exhaustive", rec.Search.Strategy)
		}
		if rec.Search.Evaluated != rec.Search.SpaceSize || rec.Search.Skipped != 0 {
			t.Fatalf("exhaustive stats = %+v", rec.Search)
		}
	})

	t.Run("engine default applies when request silent", func(t *testing.T) {
		e, err := New(cat, CatalogParams{Catalog: cat}, WithDefaultStrategy(optimize.StrategyBranchAndBound))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := e.Recommend(ctx, CaseStudy())
		if err != nil {
			t.Fatal(err)
		}
		// branch-and-bound is a retired alias: the stats echo the
		// strategy it runs.
		if rec.Search.Strategy != optimize.StrategyFrontier {
			t.Fatalf("Search.Strategy = %q, want the engine default's frontier", rec.Search.Strategy)
		}
	})

	t.Run("auto resolves to frontier on the case study", func(t *testing.T) {
		e := newTestEngine(t)
		rec, err := e.Recommend(ctx, CaseStudy())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Search.Strategy != optimize.StrategyFrontier || rec.Search.Evaluated+rec.Search.Skipped != 8 {
			t.Fatalf("Search = %+v, want a frontier run accounting for all 8 options", rec.Search)
		}
	})

	t.Run("every strategy agrees on the recommendation", func(t *testing.T) {
		e := newTestEngine(t)
		base, err := e.Recommend(ctx, CaseStudy())
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range append(optimize.Strategies(), optimize.StrategyBranchAndBound, optimize.StrategyParallelPruned,
			optimize.StrategyBeam, optimize.StrategyLDS, optimize.StrategyBounded) {
			req := CaseStudy()
			req.Strategy = strategy
			rec, err := e.Recommend(ctx, req)
			if err != nil {
				t.Fatalf("Recommend(%s): %v", strategy, err)
			}
			if rec.BestOption != base.BestOption || rec.MinRiskOption != base.MinRiskOption {
				t.Fatalf("strategy %q changed the answer: %d/%d vs %d/%d",
					strategy, rec.BestOption, rec.MinRiskOption, base.BestOption, base.MinRiskOption)
			}
		}
	})
}
