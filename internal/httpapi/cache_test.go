package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
	"uptimebroker/internal/topology"
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

// TestMetricsShowFolds: folds share the cache's entry cap and byte
// budget, so every metrics surface shows them beside the results. One
// /v2/pareto on an architecture not yet folded stores a fold and no
// result.
func TestMetricsShowFolds(t *testing.T) {
	ts, _, _ := newCachedTestServer(t)
	if resp := postJSON(t, ts, "/v2/pareto", symmetricWire(10, 97)); resp.StatusCode != http.StatusOK {
		t.Fatalf("pareto status %d, want 200", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	decodeResponse(t, resp, &m)
	if m.Cache == nil || m.Cache.FoldEntries != 1 || m.Cache.FoldBytes <= 0 || m.Cache.Entries != 0 || m.Cache.Bytes != 0 {
		t.Fatalf("cache metrics %+v, want one fold and no result", m.Cache)
	}
	body, _ := scrape(t, ts)
	for _, want := range []string{"\nreccache_fold_entries 1\n", "\nreccache_fold_bytes ", "\nreccache_entries 0\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", strings.TrimSpace(want))
		}
	}
}

// foldLookups reads reccache_fold_lookups_total for one status off
// GET /metrics.
func foldLookups(t *testing.T, ts *httptest.Server, status string) float64 {
	t.Helper()
	body, _ := scrape(t, ts)
	prefix := `reccache_fold_lookups_total{status="` + status + `"} `
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s%s: %v", prefix, v, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %q series", prefix)
	return 0
}

// symmetricWire is n identical compute tiers, each with one HA
// variant.
func symmetricWire(n int, slaPercent float64) RecommendationRequest {
	req := RecommendationRequest{
		Base:              topology.System{Name: fmt.Sprintf("symmetric-%d", n), Provider: catalog.ProviderSoftLayerSim},
		SLAPercent:        slaPercent,
		PenaltyPerHourUSD: 150,
		AllowedTechs:      map[string][]string{},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tier-%02d", i)
		req.Base.Components = append(req.Base.Components, topology.Component{
			Name: name, Layer: topology.LayerCompute, ActiveNodes: 1, Class: topology.ClassVirtualMachine,
		})
		req.AllowedTechs[name] = []string{catalog.TechESXHA}
	}
	return req
}

// TestParetoBurstFoldsOnce: a concurrent burst of identical
// /v2/pareto requests on an architecture not yet folded builds its
// fold once; every other request joins that build or reads the fold it
// left, and every body is the same.
func TestParetoBurstFoldsOnce(t *testing.T) {
	ts, _, _ := newCachedTestServer(t)
	payload, err := json.Marshal(symmetricWire(14, 97))
	if err != nil {
		t.Fatal(err)
	}
	misses := foldLookups(t, ts, "miss")
	const burst = 16
	statuses := make([]string, burst)
	bodies := make([][]byte, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v2/pareto", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
			statuses[i] = resp.Header.Get("X-Cache")
			bodies[i], err = io.ReadAll(resp.Body)
			if errs[i] == nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	count := map[string]int{}
	for i := range statuses {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d answered differently:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		count[statuses[i]]++
	}
	if count["miss"] != 1 || count["miss"]+count["shared"]+count["hit"] != burst {
		t.Fatalf("X-Cache counts = %v, want one miss and the rest shared or hit", count)
	}
	if got := foldLookups(t, ts, "miss") - misses; got != 1 {
		t.Fatalf("burst made %v fold builds, want 1", got)
	}
}

// TestParetoFoldOutlivesEpoch: Pareto reads the fold, which only an
// observation that moves an estimate it reads can re-address. After
// one that moves none it still hits while Recommend, whose results
// carry the params epoch, misses; after one that moves the compute
// tier's estimate it folds afresh and answers as an engine without a
// cache.
func TestParetoFoldOutlivesEpoch(t *testing.T) {
	ts, client, store := newCachedTestServer(t)
	req := caseStudyWire()
	ctx := context.Background()
	postJSON(t, ts, "/v2/recommendations", req)
	if got := postJSON(t, ts, "/v2/pareto", req).Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("pareto after recommend X-Cache = %q, want hit (one fold)", got)
	}

	// An hour of exposure stays under the half-year minimum.
	observe := func(kind string, seconds float64) {
		t.Helper()
		o := Observation{Provider: catalog.ProviderSoftLayerSim, Class: topology.ClassVirtualMachine, Kind: kind, Seconds: seconds}
		if err := client.Observe(ctx, o); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	observe(ObservationExposure, 3600)
	if got := postJSON(t, ts, "/v2/pareto", req).Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("pareto after a no-op observation X-Cache = %q, want hit", got)
	}
	if got := postJSON(t, ts, "/v2/recommendations", req).Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("recommend after a no-op observation X-Cache = %q, want miss (epoch moved)", got)
	}

	// A node-year of exposure with an outage replaces the catalog
	// default the compute tier reads.
	observe(ObservationExposure, 365*24*3600)
	observe(ObservationOutage, 4*3600)
	resp := postJSON(t, ts, "/v2/pareto", req)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("pareto after an estimate-moving observation X-Cache = %q, want miss", got)
	}
	var got []OptionCardDTO
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	cat := catalog.Default()
	plain, err := broker.New(cat, broker.TelemetryParams{Store: store, Fallback: broker.CatalogParams{Catalog: cat}, MinExposureYears: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	front, err := plain.Pareto(ctx, req.ToBroker())
	if err != nil {
		t.Fatal(err)
	}
	if want := fromCards(front); !reflect.DeepEqual(got, want) {
		t.Fatalf("pareto from a fresh fold diverges from an uncached engine:\n  got  %+v\n  want %+v", got, want)
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
