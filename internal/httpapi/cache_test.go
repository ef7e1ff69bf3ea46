package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
)

// newCachedTestServer is newTestServer with a result cache behind the
// engine.
func newCachedTestServer(t *testing.T) (*httptest.Server, *Client, *telemetry.Store) {
	t.Helper()
	cat := catalog.Default()
	store := telemetry.NewStore()
	engine, err := broker.New(cat, broker.TelemetryParams{
		Store:            store,
		Fallback:         broker.CatalogParams{Catalog: cat},
		MinExposureYears: 0.5,
	}, broker.WithResultCache(reccache.New(reccache.Config{})))
	if err != nil {
		t.Fatalf("broker.New: %v", err)
	}
	srv, err := NewServer(engine, store, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return ts, client, store
}

// postJSON performs one raw POST so the test can inspect response
// headers the typed client does not surface.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestRecommendXCacheHeader(t *testing.T) {
	ts, _, _ := newCachedTestServer(t)
	req := caseStudyWire()

	first := postJSON(t, ts, "/v1/recommendations", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	var firstBody RecommendationResponse
	if err := json.NewDecoder(first.Body).Decode(&firstBody); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if firstBody.Cache != "miss" {
		t.Fatalf("first body cache = %q, want miss", firstBody.Cache)
	}

	second := postJSON(t, ts, "/v2/recommendations", req)
	if got := second.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit (v1 and v2 share the cache)", got)
	}
	var secondBody RecommendationResponse
	if err := json.NewDecoder(second.Body).Decode(&secondBody); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if secondBody.Cache != "hit" {
		t.Fatalf("second body cache = %q, want hit", secondBody.Cache)
	}
	// v1 lists all eight cards; v2 carries the answer's three.
	if secondBody.BestOption != firstBody.BestOption || len(firstBody.Cards) != 8 || len(secondBody.Cards) != 3 {
		t.Fatal("cached response diverges from the computed one")
	}
}

func TestParetoXCacheHeader(t *testing.T) {
	ts, _, _ := newCachedTestServer(t)
	req := caseStudyWire()
	if got := postJSON(t, ts, "/v1/pareto", req).Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first pareto X-Cache = %q, want miss", got)
	}
	if got := postJSON(t, ts, "/v1/pareto", req).Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second pareto X-Cache = %q, want hit", got)
	}
}

func TestScenarioRecommendXCacheHeader(t *testing.T) {
	ts, _, _ := newCachedTestServer(t)
	first := postJSON(t, ts, "/v1/scenarios/casestudy/recommendation", nil)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first scenario X-Cache = %q, want miss", got)
	}
	if got := postJSON(t, ts, "/v1/scenarios/casestudy/recommendation", nil).Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second scenario X-Cache = %q, want hit", got)
	}
}

func TestUncachedServerOmitsCacheSurfaces(t *testing.T) {
	ts, client, _ := newTestServer(t)
	resp := postJSON(t, ts, "/v1/recommendations", caseStudyWire())
	if got := resp.Header.Get("X-Cache"); got != "" {
		t.Fatalf("uncached server sent X-Cache %q", got)
	}
	var body RecommendationResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Cache != "" {
		t.Fatalf("uncached server stamped cache %q", body.Cache)
	}
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Cache != nil {
		t.Fatal("uncached server reported cache metrics")
	}
}

// TestMetricsEndpointCounters is the acceptance-criteria assertion
// for the operational surface: hit, miss and inflight counters are
// visible on the metrics endpoint.
func TestMetricsEndpointCounters(t *testing.T) {
	_, client, _ := newCachedTestServer(t)
	req := caseStudyWire()
	ctx := context.Background()

	if _, err := client.Recommend(ctx, req); err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if _, err := client.Recommend(ctx, req); err != nil {
		t.Fatalf("Recommend: %v", err)
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.Cache == nil {
		t.Fatal("cached server reported no cache metrics")
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 1 {
		t.Fatalf("cache counters = %+v, want 1 miss and 1 hit", *m.Cache)
	}
	if m.Cache.Inflight != 0 {
		t.Fatalf("inflight = %d after synchronous calls, want 0", m.Cache.Inflight)
	}
	if m.Cache.Entries != 1 || m.Cache.Bytes <= 0 {
		t.Fatalf("occupancy = %d entries / %d bytes, want one sized entry", m.Cache.Entries, m.Cache.Bytes)
	}
	if m.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", m.Cache.HitRate)
	}
	if m.ParamsEpoch == nil {
		t.Fatal("telemetry-backed engine should expose a params epoch")
	}
}

// TestObservationInvalidatesCache closes the telemetry loop over the
// wire: recording an outage bumps the params epoch, which re-addresses
// every cached recommendation.
func TestObservationInvalidatesCache(t *testing.T) {
	ts, client, _ := newCachedTestServer(t)
	req := caseStudyWire()
	ctx := context.Background()

	postJSON(t, ts, "/v1/recommendations", req)
	before, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}

	obs := Observation{Provider: catalog.ProviderSoftLayerSim, Class: "vm.virtualized", Kind: ObservationOutage, Seconds: 120}
	if err := client.Observe(ctx, obs); err != nil {
		t.Fatalf("Observe: %v", err)
	}

	after, err := client.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if *after.ParamsEpoch <= *before.ParamsEpoch {
		t.Fatalf("params epoch %d -> %d, want a bump", *before.ParamsEpoch, *after.ParamsEpoch)
	}
	if got := postJSON(t, ts, "/v1/recommendations", req).Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("post-observation X-Cache = %q, want miss (epoch invalidation)", got)
	}
}

// TestJobResultCarriesCacheStatus pins the async path: a recommend
// job's persisted result reports how the cache answered it.
func TestJobResultCarriesCacheStatus(t *testing.T) {
	_, client, _ := newCachedTestServer(t)
	req := caseStudyWire()
	ctx := context.Background()

	runJob := func() RecommendationResponse {
		t.Helper()
		snap, err := client.SubmitJob(ctx, JobKindRecommend, req)
		if err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		status, err := client.WaitJob(ctx, snap.ID)
		if err != nil {
			t.Fatalf("WaitJob: %v", err)
		}
		rec, err := status.Recommendation()
		if err != nil {
			t.Fatalf("Recommendation: %v", err)
		}
		return rec
	}

	if got := runJob().Cache; got != "miss" {
		t.Fatalf("first job cache = %q, want miss", got)
	}
	if got := runJob().Cache; got != "hit" {
		t.Fatalf("second job cache = %q, want hit", got)
	}
}
