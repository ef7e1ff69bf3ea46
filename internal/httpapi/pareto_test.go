package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/topology"
)

func TestParetoEndToEnd(t *testing.T) {
	_, client, _ := newTestServer(t)
	front, err := client.Pareto(context.Background(), caseStudyWire())
	if err != nil {
		t.Fatalf("Pareto: %v", err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(front); i++ {
		if front[i].HACostUSD <= front[i-1].HACostUSD {
			t.Fatal("frontier cost not increasing over the wire")
		}
		if front[i].UptimePercent <= front[i-1].UptimePercent {
			t.Fatal("frontier uptime not increasing over the wire")
		}
	}
	for _, c := range front {
		if c.Label == "network=dual-gateway" {
			t.Fatal("dominated option leaked onto the wire frontier")
		}
	}
}

func TestParetoBadRequests(t *testing.T) {
	ts, client, _ := newTestServer(t)

	resp, err := http.Post(ts.URL+"/v1/pareto", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d, want 400", resp.StatusCode)
	}

	bad := caseStudyWire()
	bad.Base.Provider = "ghost"
	if _, err := client.Pareto(context.Background(), bad); err == nil {
		t.Fatal("unknown provider should fail")
	}
}

// TestParetoWideShapeExactOverHTTP: /v2/pareto answers the symmetric
// n=30 shape — 2^30 candidates, 16x past the cap exhaustive enforces —
// exactly: n+1 cards, one per clustered count, each matching the
// closed form (every assignment on a level prices alike, so n+1
// Evaluate calls give every level's HA cost and uptime).
func TestParetoWideShapeExactOverHTTP(t *testing.T) {
	const n = 30
	ts, client, _ := newTestServer(t)
	req := RecommendationRequest{
		Base:              topology.System{Name: "wide", Provider: catalog.ProviderSoftLayerSim},
		SLAPercent:        optimize.BenchSLAWidePercent,
		PenaltyPerHourUSD: 200,
		AllowedTechs:      map[string][]string{},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tier-%02d", i)
		req.Base.Components = append(req.Base.Components, topology.Component{
			Name: name, Layer: topology.LayerCompute, ActiveNodes: 1, Class: topology.ClassVirtualMachine,
		})
		req.AllowedTechs[name] = []string{catalog.TechESXHA}
	}
	var front []OptionCardDTO
	resp := postJSON(t, ts, "/v2/pareto", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/pareto: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&front); err != nil {
		t.Fatal(err)
	}
	// v1 lists every card, so it refuses the space; v2 answers it (see
	// TestV2RecommendsN30Exactly).
	var apiErr *APIError
	if _, err := client.Recommend(context.Background(), req); !errors.As(err, &apiErr) || apiErr.Code != CodeAnswerTooLarge {
		t.Fatalf("v1 Recommend on a 2^30 space = %v, want answer_too_large", err)
	}

	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.Compile(req.ToBroker())
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != n+1 {
		t.Fatalf("%d frontier cards, want %d", len(front), n+1)
	}
	levelStart := 0 // first 0-based option on level m
	binom := 1      // C(n, m)
	for m := 0; m <= n; m++ {
		a := make(optimize.Assignment, n)
		for j := n - m; j < n; j++ {
			a[j] = 1
		}
		want, err := p.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		got := front[m]
		if got.Option < levelStart+1 || got.Option > levelStart+binom {
			t.Fatalf("card %d is option %d, outside level %d's options %d..%d", m, got.Option, m, levelStart+1, levelStart+binom)
		}
		if got.HACostUSD != want.TCO.HA.Dollars() || math.Abs(got.UptimePercent-100*want.Uptime) > 1e-9 {
			t.Fatalf("card %d: $%v at %v%%, closed form $%v at %v%%", m, got.HACostUSD, got.UptimePercent, want.TCO.HA.Dollars(), 100*want.Uptime)
		}
		levelStart += binom
		binom = binom * (n - m) / (m + 1)
	}
}
