package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/topology"
)

// wideWireRequest builds a request whose 2^n-candidate space takes
// long enough that a cancel round-trip lands while it enumerates.
func wideWireRequest(n int) RecommendationRequest {
	comps := make([]topology.Component, n)
	allowed := make(map[string][]string, n)
	for i := range comps {
		name := fmt.Sprintf("tier-%02d", i)
		comps[i] = topology.Component{
			Name:        name,
			Layer:       topology.LayerCompute,
			ActiveNodes: 1,
			Class:       topology.ClassVirtualMachine,
		}
		allowed[name] = []string{catalog.TechESXHA}
	}
	return RecommendationRequest{
		Base: topology.System{
			Name:       "wide",
			Provider:   catalog.ProviderSoftLayerSim,
			Components: comps,
		},
		SLAPercent:        98,
		PenaltyPerHourUSD: 100,
		AllowedTechs:      allowed,
	}
}

func TestJobLifecycleRecommend(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()

	job, err := client.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if job.ID == "" || job.Kind != JobKindRecommend {
		t.Fatalf("submit returned %+v", job)
	}

	job, err = client.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if job.State != "done" {
		t.Fatalf("state = %s (error %+v), want done", job.State, job.Error)
	}
	got, err := job.Recommendation()
	if err != nil {
		t.Fatalf("Recommendation: %v", err)
	}

	// The async answer must match the synchronous v2 one exactly.
	var want RecommendationResponse
	decodeResponse(t, postJSON(t, ts, "/v2/recommendations", caseStudyWire()), &want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("async result diverges from sync: %+v vs %+v", got, want)
	}
}

func TestJobLifecyclePareto(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	job, err := client.SubmitJob(ctx, JobKindPareto, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	job, err = client.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	front, err := job.ParetoFront()
	if err != nil {
		t.Fatal(err)
	}
	want, err := client.Pareto(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != len(want) {
		t.Fatalf("async pareto has %d cards, sync %d", len(front), len(want))
	}
}

func TestJobSubmitLocationHeader(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body, _ := json.Marshal(JobRequest{Kind: JobKindRecommend, Request: caseStudyWire()})
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var job JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v2/jobs/"+job.ID {
		t.Fatalf("Location = %q, want /v2/jobs/%s", loc, job.ID)
	}
	if job.State != "queued" {
		t.Fatalf("state = %s, want queued", job.State)
	}
}

func TestJobCancelMidRun(t *testing.T) {
	ts, srv, client := newDurableServer(t, t.TempDir())
	defer func() { ts.Close(); srv.Close() }()
	ctx := context.Background()

	// A gated job stands in for a long enumeration: it blocks until
	// its context is cancelled, so the test observes the running state
	// deterministically instead of racing the evaluator (which prices
	// even wide instances faster than an HTTP round-trip since the
	// incremental-evaluation engine landed). Enumeration-level
	// cancellation is covered by the optimize and broker context
	// tests.
	started := make(chan struct{})
	snap, err := srv.jobs.Submit("recommend", nil, func(jctx context.Context) (any, error) {
		close(started)
		<-jctx.Done()
		return nil, jctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	job := JobStatus{ID: snap.ID}

	// Wait for the job surface to report it running, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := client.GetJob(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == "running" {
			break
		}
		if got.Terminal() {
			t.Fatalf("job reached %s before it could be cancelled", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := client.CancelJob(ctx, job.ID); err != nil {
		t.Fatalf("CancelJob: %v", err)
	}

	got, err := client.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "cancelled" {
		t.Fatalf("state after cancel = %s, want cancelled", got.State)
	}
	if got.Error == nil || got.Error.Code != "cancelled" {
		t.Fatalf("cancelled job error = %+v", got.Error)
	}
}

func TestJobNotFound(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	_, err := client.GetJob(ctx, "job-00009999")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("GetJob unknown = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != CodeJobNotFound {
		t.Fatalf("APIError = %+v", apiErr)
	}

	if _, err := client.CancelJob(ctx, "job-00009999"); !errors.As(err, &apiErr) || apiErr.Code != CodeJobNotFound {
		t.Fatalf("CancelJob unknown = %v", err)
	}
}

func TestJobCancelFinishedConflicts(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	job, err := client.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	_, err = client.CancelJob(ctx, job.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != CodeJobFinished {
		t.Fatalf("cancel finished job = %v, want 409 %s", err, CodeJobFinished)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()

	// Unknown kind.
	_, err := client.SubmitJob(ctx, "explode", caseStudyWire())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeInvalidRequest {
		t.Fatalf("unknown kind = %v", err)
	}

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, http.StatusBadRequest, CodeInvalidBody)
}

// A semantically invalid async request still yields a job — which
// then fails, carrying the validation error.
func TestJobFailure(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	bad := caseStudyWire()
	bad.Base.Provider = "ghost-cloud"
	job, err := client.SubmitJob(ctx, JobKindRecommend, bad)
	if err != nil {
		t.Fatal(err)
	}
	job, err = client.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "failed" {
		t.Fatalf("state = %s, want failed", job.State)
	}
	if job.Error == nil || !strings.Contains(job.Error.Detail, "ghost-cloud") {
		t.Fatalf("job error = %+v", job.Error)
	}
	if _, err := job.Recommendation(); err == nil {
		t.Fatal("Recommendation on failed job should error")
	}
}

func TestJobListAndMetrics(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		job, err := client.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitJob(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}

	list, err := client.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("ListJobs = %d jobs, want 2", len(list))
	}

	// The raw list response also carries the queue metrics.
	resp, err := http.Get(ts.URL + "/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var full struct {
		Metrics struct {
			Submitted int64 `json:"submitted"`
			Done      int64 `json:"done"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if full.Metrics.Submitted != 2 || full.Metrics.Done != 2 {
		t.Fatalf("metrics = %+v", full.Metrics)
	}
}

// TestJobTTLExpiry: a finished job outlives its TTL only on the job
// store's clock. The clock is frozen until WaitJob has fetched the
// result, so the 10ms sweep cannot race that final fetch; advancing it
// past the TTL lets the next sweep remove the job, and the route then
// answers 404.
func TestJobTTLExpiry(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	_, client, _ := newTestServer(t,
		WithJobTTL(10*time.Millisecond),
		WithJobGCInterval(10*time.Millisecond),
		WithJobClock(clock),
	)
	ctx := context.Background()

	job, err := client.SubmitJob(ctx, JobKindRecommend, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := client.GetJob(ctx, job.ID)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == CodeJobNotFound {
			return // swept
		}
		if err != nil {
			t.Fatalf("GetJob: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, client, _ := newTestServer(t)
	ctx := context.Background()

	bad := caseStudyWire()
	bad.Base.Provider = "ghost-cloud"
	resp, err := client.RecommendBatch(ctx, []RecommendationRequest{caseStudyWire(), bad, caseStudyWire()})
	if err != nil {
		t.Fatalf("RecommendBatch: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	if resp.Succeeded != 2 || resp.Failed != 1 {
		t.Fatalf("succeeded/failed = %d/%d, want 2/1", resp.Succeeded, resp.Failed)
	}
	for i, want := range []bool{true, false, true} {
		item := resp.Results[i]
		if item.Index != i {
			t.Fatalf("item %d has index %d", i, item.Index)
		}
		if want && (item.Recommendation == nil || item.Error != nil) {
			t.Fatalf("item %d should have succeeded: %+v", i, item)
		}
		if !want && (item.Error == nil || item.Recommendation != nil) {
			t.Fatalf("item %d should have failed: %+v", i, item)
		}
	}

	// Batch results agree with the synchronous route.
	solo, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Recommendation.BestOption != solo.BestOption {
		t.Fatal("batch result diverges from sync route")
	}
}

func TestBatchValidation(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()

	_, err := client.RecommendBatch(ctx, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("empty batch = %v, want 400", err)
	}

	resp, err := http.Post(ts.URL+"/v2/recommendations/batch", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertProblem(t, resp, http.StatusBadRequest, CodeInvalidBody)
}

// assertProblem checks that a response is valid RFC 9457
// problem+json with the wanted status and code.
func assertProblem(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ProblemContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ProblemContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var p Problem
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("problem body is not JSON: %v (%s)", err, body)
	}
	if p.Status != wantStatus {
		t.Fatalf("problem.status = %d, want %d (%s)", p.Status, wantStatus, body)
	}
	if p.Code != wantCode {
		t.Fatalf("problem.code = %q, want %q (%s)", p.Code, wantCode, body)
	}
	if p.Type == "" || p.Title == "" {
		t.Fatalf("problem missing type/title: %s", body)
	}
}

// Every 4xx/5xx path on the v2 surface must produce problem+json.
func TestProblemShapeOnErrorPaths(t *testing.T) {
	ts, _, _ := newTestServer(t)

	do := func(method, path, body string) *http.Response {
		t.Helper()
		var rdr io.Reader
		if body != "" {
			rdr = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rdr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unknown route", http.MethodGet, "/v2/nope", "", http.StatusNotFound, CodeNotFound},
		{"method not allowed", http.MethodGet, "/v2/recommendations", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"malformed recommend", http.MethodPost, "/v2/recommendations", "{nope", http.StatusBadRequest, CodeInvalidBody},
		{"invalid recommend", http.MethodPost, "/v2/recommendations", `{"base":{"name":"x","provider":"ghost","components":[{"name":"c","layer":"compute","active_nodes":1}]},"sla_percent":98,"penalty_per_hour_usd":10}`, http.StatusUnprocessableEntity, CodeInvalidRequest},
		{"malformed pareto", http.MethodPost, "/v2/pareto", "{nope", http.StatusBadRequest, CodeInvalidBody},
		{"unknown job", http.MethodGet, "/v2/jobs/job-0000", "", http.StatusNotFound, CodeJobNotFound},
		{"unknown job cancel", http.MethodDelete, "/v2/jobs/job-0000", "", http.StatusNotFound, CodeJobNotFound},
		{"bad job kind", http.MethodPost, "/v2/jobs", `{"kind":"explode","request":{}}`, http.StatusBadRequest, CodeInvalidRequest},
		{"empty batch", http.MethodPost, "/v2/recommendations/batch", `{"requests":[]}`, http.StatusBadRequest, CodeInvalidRequest},
		{"missing params", http.MethodGet, "/v2/params", "", http.StatusBadRequest, CodeInvalidRequest},
		{"unknown scenario", http.MethodPost, "/v2/scenarios/ghost/recommendation", "", http.StatusNotFound, CodeNotFound},
		{"bad observation", http.MethodPost, "/v2/observations", `{"provider":"p","class":"c","kind":"weird","seconds":1}`, http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := do(tc.method, tc.path, tc.body)
			defer resp.Body.Close()
			assertProblem(t, resp, tc.wantStatus, tc.wantCode)
		})
	}
}

func TestV1RoutesAlsoSpeakProblemJSON(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/recommendations", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Valid problem+json...
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var p Problem
	if err := json.Unmarshal(body, &p); err != nil || p.Code != CodeInvalidBody {
		t.Fatalf("v1 error body: %s (err %v)", body, err)
	}
	// ...that legacy clients decoding {"error": "..."} still read.
	var legacy struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &legacy); err != nil || legacy.Error == "" {
		t.Fatalf("v1 error body lost the legacy error member: %s", body)
	}
}

func TestV1V2RecommendationParity(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body, _ := json.Marshal(caseStudyWire())

	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// v1 lists every card; v2 carries the best, min-risk and as-is
	// cards alone, identical to their v1 entries. Everything else is
	// the same answer.
	var v1, v2 RecommendationResponse
	if err := json.Unmarshal(fetch("/v1/recommendations"), &v1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fetch("/v2/recommendations"), &v2); err != nil {
		t.Fatal(err)
	}
	if want := []OptionCardDTO{v1.Cards[2], v1.Cards[4], v1.Cards[7]}; !reflect.DeepEqual(v2.Cards, want) {
		t.Fatalf("v2 cards %+v, want v1's #3, #5, #8", v2.Cards)
	}
	v1.Cards, v2.Cards = nil, nil
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("v1 and v2 answers diverge:\nv1: %+v\nv2: %+v", v1, v2)
	}
}

func TestRateLimiting(t *testing.T) {
	ts, _, _ := newTestServer(t, WithRateLimit(0.000001, 2))

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/scenarios")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst = %d, want 200", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	assertProblem(t, resp, http.StatusTooManyRequests, CodeRateLimited)

	// Liveness stays exempt even with the bucket drained.
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz under rate limit = %d, want 200", health.StatusCode)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	ts, _, _ := newTestServer(t)

	// Server-assigned.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("response missing X-Request-Id")
	}

	// Caller-supplied IDs are echoed and land in problem bodies.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/nope", nil)
	req.Header.Set(RequestIDHeader, "trace-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "trace-123" {
		t.Fatalf("echoed request ID = %q", got)
	}
	var p Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.RequestID != "trace-123" {
		t.Fatalf("problem.request_id = %q, want trace-123", p.RequestID)
	}
}

func TestClientRetries(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeProblem(w, NewProblem(CodeUnavailable, http.StatusServiceUnavailable, "warming up"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer flaky.Close()

	client, err := NewClient(flaky.URL, flaky.Client(), WithRetries(3), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("Health with retries = %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}

	// Without retries the same failure surfaces immediately.
	calls.Store(0)
	plain, err := NewClient(flaky.URL, flaky.Client())
	if err != nil {
		t.Fatal(err)
	}
	err = plain.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeUnavailable {
		t.Fatalf("Health without retries = %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

func TestClientDoesNotRetryPosts(t *testing.T) {
	var calls atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeProblem(w, NewProblem(CodeUnavailable, http.StatusServiceUnavailable, "down"))
	}))
	defer failing.Close()

	client, err := NewClient(failing.URL, failing.Client(), WithRetries(5), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recommend(context.Background(), caseStudyWire()); err == nil {
		t.Fatal("Recommend against a 503 server should fail")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("non-idempotent POST was retried: %d calls", got)
	}
}

func TestServerCloseRejectsNewJobs(t *testing.T) {
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	srv.Close()
	_, err = client.SubmitJob(context.Background(), JobKindRecommend, caseStudyWire())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeUnavailable {
		t.Fatalf("SubmitJob after Close = %v, want 503 %s", err, CodeUnavailable)
	}
}
