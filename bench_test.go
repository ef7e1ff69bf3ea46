package uptimebroker

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/failsim"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/lifecycle"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/report"
	"uptimebroker/internal/telemetry"
	"uptimebroker/internal/topology"

	"net/http/httptest"
)

// ---------------------------------------------------------------------------
// FIG3–FIG9: pricing all eight option cards of the case study.
// ---------------------------------------------------------------------------

func BenchmarkOptionCards(b *testing.B) {
	engine := mustEngine(b)
	req := broker.CaseStudy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cards, _, err := engine.Cards(context.Background(), req, 0, broker.MaxCards)
		if err != nil {
			b.Fatal(err)
		}
		if len(cards) != 8 {
			b.Fatal("wrong card count")
		}
	}
}

// ---------------------------------------------------------------------------
// FIG10: the summary decision (best / min-risk / savings).
// ---------------------------------------------------------------------------

func BenchmarkCaseStudySummary(b *testing.B) {
	engine := mustEngine(b)
	req := broker.CaseStudy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := engine.Recommend(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if rec.BestOption != 3 || rec.MinRiskOption != 5 {
			b.Fatalf("case study shape broke: best=%d minrisk=%d", rec.BestOption, rec.MinRiskOption)
		}
	}
}

// ---------------------------------------------------------------------------
// TAB-SLA: recommendation across the SLA / penalty grid.
// ---------------------------------------------------------------------------

func BenchmarkSLASweep(b *testing.B) {
	engine := mustEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, slaPct := range []float64{95, 98, 99.5} {
			for _, perHour := range []float64{50, 400} {
				req := broker.CaseStudy()
				req.SLA = cost.SLA{UptimePercent: slaPct, Penalty: cost.Penalty{PerHour: cost.Dollars(perHour)}}
				if _, err := engine.Recommend(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// COMPLEX: Section III.C — exhaustive vs pruned vs the frontier DP.
// ---------------------------------------------------------------------------

func BenchmarkExhaustive(b *testing.B) {
	for _, shape := range []struct{ n, k int }{{6, 2}, {10, 2}, {6, 4}, {8, 3}} {
		b.Run(fmt.Sprintf("n=%d_k=%d", shape.n, shape.k), func(b *testing.B) {
			p := syntheticProblem(shape.n, shape.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Exhaustive(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPruned(b *testing.B) {
	for _, shape := range []struct{ n, k int }{{6, 2}, {10, 2}, {6, 4}, {8, 3}} {
		b.Run(fmt.Sprintf("n=%d_k=%d", shape.n, shape.k), func(b *testing.B) {
			p := syntheticProblem(shape.n, shape.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Pruned(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFrontier(b *testing.B) {
	for _, shape := range []struct{ n, k int }{{10, 2}, {8, 3}} {
		b.Run(fmt.Sprintf("n=%d_k=%d", shape.n, shape.k), func(b *testing.B) {
			p := syntheticProblem(shape.n, shape.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := optimize.Solve(context.Background(), p, optimize.StrategyFrontier); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// GREEDY: the hill-climbing baseline vs the exact searches.
// ---------------------------------------------------------------------------

func BenchmarkGreedy(b *testing.B) {
	for _, shape := range []struct{ n, k int }{{10, 2}, {8, 3}} {
		b.Run(fmt.Sprintf("n=%d_k=%d", shape.n, shape.k), func(b *testing.B) {
			p := syntheticProblem(shape.n, shape.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Greedy(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Pareto frontier extraction from a full card set.
// ---------------------------------------------------------------------------

func BenchmarkPareto(b *testing.B) {
	engine := mustEngine(b)
	req := broker.FutureWork(catalog.ProviderSoftLayerSim) // 270 cards
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, err := engine.Pareto(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkParetoFreshTerm is a customer negotiating terms on a
// symmetric n=18 architecture: a cached engine answers a fresh SLA and
// penalty each iteration, so every call after the first prices the
// cached fold of the architecture.
func BenchmarkParetoFreshTerm(b *testing.B) {
	const n = 18
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat},
		broker.WithResultCache(NewResultCache(CacheConfig{})))
	if err != nil {
		b.Fatal(err)
	}
	req := broker.Request{
		Base:         topology.System{Name: "symmetric", Provider: catalog.ProviderSoftLayerSim},
		AllowedTechs: map[string][]string{},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c%02d", i)
		req.Base.Components = append(req.Base.Components, topology.Component{Name: name, Layer: topology.LayerCompute, ActiveNodes: 1})
		req.AllowedTechs[name] = []string{catalog.TechESXHA}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.SLA = cost.SLA{
			UptimePercent: 95 + float64(i%4000)/1000,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(float64(50 + i%500))},
		}
		front, err := engine.Pareto(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) != n+1 {
			b.Fatalf("%d frontier cards, want %d", len(front), n+1)
		}
	}
}

// ---------------------------------------------------------------------------
// LIFECYCLE: one observe-then-reoptimize epoch.
// ---------------------------------------------------------------------------

func BenchmarkLifecycleEpoch(b *testing.B) {
	req := broker.CaseStudy()
	truth, ids, err := lifecycle.TruthFromComponents(req, []availability.NodeParams{
		{Down: 0.0055, FailuresPerYear: 5},
		{Down: 0.0200, FailuresPerYear: 3},
		{Down: 0.0146, FailuresPerYear: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := lifecycle.Config{
		Catalog:          catalog.Default(),
		Request:          req,
		Truth:            truth,
		IDs:              ids,
		Epochs:           1,
		EpochLength:      365 * 24 * time.Hour,
		MinExposureYears: 1,
		Seed:             3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lifecycle.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------------

func BenchmarkReportText(b *testing.B) {
	engine := mustEngine(b)
	rec, err := engine.Recommend(context.Background(), broker.CaseStudy())
	if err != nil {
		b.Fatal(err)
	}
	cards, _, err := engine.Cards(context.Background(), broker.CaseStudy(), 0, broker.MaxCards)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := report.Text(&sb, rec, cards); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// VALID: the Monte-Carlo simulator that validates Equations 1–4.
// ---------------------------------------------------------------------------

func BenchmarkFailsim(b *testing.B) {
	sys := availability.System{Clusters: []availability.Cluster{
		{Name: "compute", Nodes: 4, Tolerated: 1, NodeDown: 0.0055, FailuresPerYear: 5, Failover: 15 * time.Minute},
		{Name: "storage", Nodes: 2, Tolerated: 1, NodeDown: 0.02, FailuresPerYear: 3, Failover: time.Minute},
		{Name: "network", Nodes: 2, Tolerated: 1, NodeDown: 0.0146, FailuresPerYear: 4, Failover: 2 * time.Minute},
	}}
	cfg := failsim.Config{
		System:       sys,
		Horizon:      365 * 24 * time.Hour,
		Replications: 8,
		Seed:         1,
		Workers:      1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := failsim.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// FUTURE: the Section V extended-catalog search (270 options).
// ---------------------------------------------------------------------------

func BenchmarkFutureWork(b *testing.B) {
	engine := mustEngine(b)
	req := broker.FutureWork(catalog.ProviderSoftLayerSim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Recommend(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// HYBRID: quoting one workload across the three-cloud portfolio.
// ---------------------------------------------------------------------------

func BenchmarkHybridQuotes(b *testing.B) {
	engine := mustEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, provider := range []string{catalog.ProviderSoftLayerSim, catalog.ProviderNimbus, catalog.ProviderStratus} {
			req := broker.CaseStudy()
			req.Base = topology.ThreeTier(provider)
			req.AsIs = nil
			if _, err := engine.Recommend(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// FIG2: the brokered-service flow over HTTP (request in, cards out).
// ---------------------------------------------------------------------------

func BenchmarkHTTPRecommend(b *testing.B) {
	engine := mustEngine(b)
	srv, err := httpapi.NewServer(engine, telemetry.NewStore(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := httpapi.NewClient(ts.URL, ts.Client())
	if err != nil {
		b.Fatal(err)
	}
	cs := broker.CaseStudy()
	req := httpapi.RecommendationRequest{
		Base:              cs.Base,
		SLAPercent:        cs.SLA.UptimePercent,
		PenaltyPerHourUSD: cs.SLA.Penalty.PerHour.Dollars(),
		AsIs:              map[string]string(cs.AsIs),
		AllowedTechs:      cs.AllowedTechs,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Recommend(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.BestOption != 3 {
			b.Fatal("wrong recommendation over HTTP")
		}
	}
}

// ---------------------------------------------------------------------------
// Model micro-benchmarks: the hot paths under every experiment.
// ---------------------------------------------------------------------------

func BenchmarkUptimeEquation(b *testing.B) {
	sys := availability.System{Clusters: []availability.Cluster{
		{Name: "compute", Nodes: 4, Tolerated: 1, NodeDown: 0.0055, FailuresPerYear: 5, Failover: 15 * time.Minute},
		{Name: "storage", Nodes: 2, Tolerated: 1, NodeDown: 0.02, FailuresPerYear: 3, Failover: time.Minute},
		{Name: "network", Nodes: 2, Tolerated: 1, NodeDown: 0.0146, FailuresPerYear: 4, Failover: 2 * time.Minute},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u := sys.Uptime(); u <= 0 {
			b.Fatal("bad uptime")
		}
	}
}

func BenchmarkBinomialTail(b *testing.B) {
	c := availability.Cluster{Name: "c", Nodes: 16, Tolerated: 4, NodeDown: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := c.UpProbability(); p <= 0 {
			b.Fatal("bad probability")
		}
	}
}

func BenchmarkTelemetryEstimate(b *testing.B) {
	store := telemetry.NewStore()
	if err := store.RecordExposure("p", "c", 100*365*24*time.Hour); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := store.RecordOutage("p", "c", time.Hour); err != nil {
			b.Fatal(err)
		}
		if err := store.RecordFailover("p", "c", time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Estimate("p", "c"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func mustEngine(tb testing.TB) *broker.Engine {
	tb.Helper()
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		tb.Fatal(err)
	}
	return engine
}

// syntheticProblem mirrors cmd/experiments' synthetic instance builder
// so COMPLEX benchmarks and tables measure the same workload.
func syntheticProblem(n, k int) *optimize.Problem {
	comps := make([]optimize.ComponentChoices, n)
	for i := range comps {
		variants := make([]optimize.Variant, k)
		variants[0] = optimize.Variant{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: 2, Tolerated: 0, NodeDown: 0.004},
		}
		for v := 1; v < k; v++ {
			variants[v] = optimize.Variant{
				Label: fmt.Sprintf("ha%d", v),
				Cluster: availability.Cluster{
					Name: "c", Nodes: 2 + v, Tolerated: v, NodeDown: 0.004,
					FailuresPerYear: 4, Failover: 3 * time.Minute,
				},
				MonthlyCost: cost.Dollars(float64(200 * v)),
			}
		}
		comps[i] = optimize.ComponentChoices{Name: fmt.Sprintf("c%d", i), Variants: variants}
	}
	return &optimize.Problem{
		Components: comps,
		SLA:        cost.SLA{UptimePercent: 97, Penalty: cost.Penalty{PerHour: cost.Dollars(150)}},
	}
}
