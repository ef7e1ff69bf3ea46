package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"uptimebroker/internal/obs"
)

// APIError is the typed client-side form of a server problem+json
// response. Callers dispatch on Code (stable) or Status.
type APIError struct {
	// Status is the HTTP status code.
	Status int

	// Code is the machine-readable problem code, e.g. "job_not_found".
	Code string

	// Title and Detail are the problem's human-readable parts.
	Title  string
	Detail string

	// RequestID correlates with server logs when present.
	RequestID string

	// Method and Path locate the failing call.
	Method string
	Path   string

	// RetryAfter is the server-directed wait from a Retry-After
	// header (429/503 responses), zero when absent. The retry loop
	// honors it in place of its own backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	msg := e.Detail
	if msg == "" {
		msg = e.Title
	}
	if msg == "" {
		msg = http.StatusText(e.Status)
	}
	return fmt.Sprintf("httpapi: %s %s: %s (HTTP %d, code %s)", e.Method, e.Path, msg, e.Status, e.Code)
}

// Client is a typed client for the brokerage API, v1 and v2.
type Client struct {
	baseURL  string
	http     *http.Client
	retries  int
	backoff  time.Duration
	pollBase time.Duration
	solver   *SolverConfigDTO
}

// ClientOption customizes NewClient.
type ClientOption func(*Client)

// WithHTTPClient swaps the underlying *http.Client (for custom
// transports, proxies, or httptest clients).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.http = hc
		}
	}
}

// WithRetries enables up to n retries of idempotent (GET) calls on
// transport errors and retryable statuses (429, 502, 503, 504).
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithRetryBackoff sets the base backoff between retries (default
// 100ms, doubling per attempt).
func WithRetryBackoff(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.backoff = d
		}
	}
}

// WithPollInterval sets WaitJob's initial poll interval (default
// 25ms, doubling to a 1s ceiling).
func WithPollInterval(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.pollBase = d
		}
	}
}

// WithSolverConfig sets a default solver specification stamped onto
// every outgoing recommendation-type request (Recommend, Pareto,
// SubmitJob, RecommendBatch) that does not make any solver choice
// itself. A request naming a strategy — flat or nested — or carrying
// its own solver object is sent untouched; the server default remains
// "auto" with no limits.
func WithSolverConfig(cfg SolverConfigDTO) ClientOption {
	return func(c *Client) { c.solver = &cfg }
}

// WithBudget sets a default search budget — a wall-clock cap and/or
// an evaluation cap, zero meaning unlimited — merged into the
// client's default solver spec. Composes with WithStrategy and
// WithSolverConfig in any order (later strategy options keep the
// budget, and vice versa).
func WithBudget(wall time.Duration, maxEvaluations int64) ClientOption {
	return func(c *Client) {
		if c.solver == nil {
			c.solver = &SolverConfigDTO{}
		}
		c.solver.BudgetMS = wall.Milliseconds()
		c.solver.MaxEvaluations = maxEvaluations
	}
}

// WithStrategy sets a default solver strategy stamped onto every
// outgoing recommendation-type request that does not make a solver
// choice itself. It delegates to the same default spec as
// WithSolverConfig and WithBudget, so the three compose. A
// per-request strategy always wins; the server default remains
// "auto".
func WithStrategy(strategy string) ClientOption {
	return func(c *Client) {
		if c.solver == nil {
			c.solver = &SolverConfigDTO{}
		}
		c.solver.Strategy = strategy
	}
}

// withDefaults returns req with the client's default solver spec
// applied where the request leaves the choice open. The default
// applies wholesale or not at all: a request that names a flat
// strategy or carries any nested spec already made its choice, and
// half-merging a client budget under it would change semantics the
// caller spelled out.
func (c *Client) withDefaults(req RecommendationRequest) RecommendationRequest {
	if req.Strategy == "" && req.Solver == nil && c.solver != nil {
		cfg := *c.solver
		req.Solver = &cfg
	}
	return req
}

// NewClient builds a client for the given base URL (for example
// "http://127.0.0.1:8080"). httpClient may be nil to use
// http.DefaultClient; options refine behavior further.
func NewClient(baseURL string, httpClient *http.Client, opts ...ClientOption) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("httpapi: invalid base URL %q", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		baseURL:  strings.TrimRight(baseURL, "/"),
		http:     httpClient,
		backoff:  100 * time.Millisecond,
		pollBase: 25 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.baseURL }

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]string
	return c.do(ctx, http.MethodGet, "/healthz", nil, &out)
}

// Ready checks GET /readyz: nil once the server's job store is open
// and recovery is complete, a problem-typed error (503 unavailable)
// before that.
func (c *Client) Ready(ctx context.Context) error {
	var out map[string]string
	return c.do(ctx, http.MethodGet, "/readyz", nil, &out)
}

// Metrics fetches the server's operational counters: job subsystem
// metrics, result-cache hit/miss/inflight counters (when the server
// caches) and the invalidation epochs behind the cache keys.
func (c *Client) Metrics(ctx context.Context) (MetricsResponse, error) {
	var out MetricsResponse
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// MetricsSnapshot fetches one full metrics-registry snapshot — the
// polling form of the /v2/metrics/events stream.
func (c *Client) MetricsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	var out obs.Snapshot
	err := c.do(ctx, http.MethodGet, "/v2/metrics/events", nil, &out)
	return out, err
}

// WatchMetrics delivers registry snapshots to fn on a cadence until
// ctx is done (when it returns ctx.Err()) or the server becomes
// unreachable. It prefers the GET /v2/metrics/events SSE stream and
// degrades to polling MetricsSnapshot when the stream is unavailable
// — same contract as WaitJob's progress streaming. interval <= 0 uses
// the server's default cadence.
func (c *Client) WatchMetrics(ctx context.Context, interval time.Duration, fn func(obs.Snapshot)) error {
	for {
		if handled, err := c.streamMetrics(ctx, interval, fn); handled {
			return err
		}
		// SSE unavailable: poll once, then retry the stream — a server
		// restart mid-stream recovers without the caller noticing.
		snap, err := c.MetricsSnapshot(ctx)
		if err != nil {
			return err
		}
		fn(snap)
		wait := interval
		if wait <= 0 {
			wait = 2 * time.Second
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// streamMetrics consumes the SSE metrics stream. handled=false means
// the caller should fall back to polling.
func (c *Client) streamMetrics(ctx context.Context, interval time.Duration, fn func(obs.Snapshot)) (handled bool, err error) {
	path := c.baseURL + "/v2/metrics/events"
	if interval > 0 {
		path += "?interval=" + url.QueryEscape(interval.String())
	}
	req, reqErr := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if reqErr != nil {
		return false, nil
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, doErr := c.http.Do(req)
	if doErr != nil {
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		return false, nil
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return false, nil
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "" && len(data) > 0:
			var snap obs.Snapshot
			if jsonErr := json.Unmarshal(data, &snap); jsonErr != nil {
				return false, nil
			}
			data = data[:0]
			fn(snap)
		}
	}
	if ctx.Err() != nil {
		return true, ctx.Err()
	}
	// Stream ended without cancellation (server restart, proxy
	// timeout): resume by polling.
	return false, nil
}

// Recommend submits a synchronous recommendation request over v1: the
// response lists every option card. Spaces of more than
// broker.MaxCards options are refused with answer_too_large; their
// answer comes from SubmitJob or RecommendBatch, their cards from
// Cards.
func (c *Client) Recommend(ctx context.Context, req RecommendationRequest) (RecommendationResponse, error) {
	var out RecommendationResponse
	err := c.do(ctx, http.MethodPost, "/v1/recommendations", c.withDefaults(req), &out)
	return out, err
}

// Cards fetches one page of a request's option listing: up to limit
// cards (at most broker.MaxCards) from 0-based presentation position
// offset on.
func (c *Client) Cards(ctx context.Context, req RecommendationRequest, offset, limit int) (CardPageResponse, error) {
	var out CardPageResponse
	path := fmt.Sprintf("/v2/recommendations/cards?offset=%d&limit=%d", offset, limit)
	err := c.do(ctx, http.MethodPost, path, c.withDefaults(req), &out)
	return out, err
}

// Pareto submits a request and returns only the cost × uptime frontier
// cards.
func (c *Client) Pareto(ctx context.Context, req RecommendationRequest) ([]OptionCardDTO, error) {
	var out []OptionCardDTO
	err := c.do(ctx, http.MethodPost, "/v1/pareto", c.withDefaults(req), &out)
	return out, err
}

// Technologies lists the catalog's HA technologies.
func (c *Client) Technologies(ctx context.Context) ([]TechnologyDTO, error) {
	var out []TechnologyDTO
	err := c.do(ctx, http.MethodGet, "/v1/catalog/technologies", nil, &out)
	return out, err
}

// Providers lists the catalog's cloud providers.
func (c *Client) Providers(ctx context.Context) ([]ProviderDTO, error) {
	var out []ProviderDTO
	err := c.do(ctx, http.MethodGet, "/v1/catalog/providers", nil, &out)
	return out, err
}

// Params fetches the parameter estimate for one (provider, class).
func (c *Client) Params(ctx context.Context, provider, class string) (ParamsResponse, error) {
	var out ParamsResponse
	path := "/v1/params?provider=" + url.QueryEscape(provider) + "&class=" + url.QueryEscape(class)
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Scenarios lists the built-in scenario library for a provider
// (defaulting to the reference provider when empty).
func (c *Client) Scenarios(ctx context.Context, provider string) ([]ScenarioDTO, error) {
	path := "/v1/scenarios"
	if provider != "" {
		path += "?provider=" + url.QueryEscape(provider)
	}
	var out []ScenarioDTO
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// ScenarioRecommendation runs the brokerage on a built-in scenario.
func (c *Client) ScenarioRecommendation(ctx context.Context, name, provider string) (RecommendationResponse, error) {
	path := "/v1/scenarios/" + url.PathEscape(name) + "/recommendation"
	if provider != "" {
		path += "?provider=" + url.QueryEscape(provider)
	}
	var out RecommendationResponse
	err := c.do(ctx, http.MethodPost, path, nil, &out)
	return out, err
}

// Observe submits one telemetry observation.
func (c *Client) Observe(ctx context.Context, obs Observation) error {
	var out map[string]string
	return c.do(ctx, http.MethodPost, "/v1/observations", obs, &out)
}

// JobStatus is the client-side form of an async job; Result stays raw
// until decoded by Recommendation or ParetoFront.
type JobStatus struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	State      string          `json:"state"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Progress   *JobProgressDTO `json:"progress,omitempty"`
	Error      *JobErrorDTO    `json:"error,omitempty"`
}

// Terminal reports whether the job reached a final state.
func (j JobStatus) Terminal() bool {
	switch j.State {
	case jobsStateDone, jobsStateFailed, jobsStateCancelled:
		return true
	}
	return false
}

// Mirror of the jobs package states, avoiding a client→jobs import.
const (
	jobsStateDone      = "done"
	jobsStateFailed    = "failed"
	jobsStateCancelled = "cancelled"
)

// Recommendation decodes a finished recommend job's result.
func (j JobStatus) Recommendation() (RecommendationResponse, error) {
	var out RecommendationResponse
	if j.State != jobsStateDone {
		return out, fmt.Errorf("httpapi: job %s is %s, not done", j.ID, j.State)
	}
	if err := json.Unmarshal(j.Result, &out); err != nil {
		return out, fmt.Errorf("httpapi: decoding job result: %w", err)
	}
	return out, nil
}

// ParetoFront decodes a finished pareto job's result.
func (j JobStatus) ParetoFront() ([]OptionCardDTO, error) {
	if j.State != jobsStateDone {
		return nil, fmt.Errorf("httpapi: job %s is %s, not done", j.ID, j.State)
	}
	var out []OptionCardDTO
	if err := json.Unmarshal(j.Result, &out); err != nil {
		return nil, fmt.Errorf("httpapi: decoding job result: %w", err)
	}
	return out, nil
}

// SubmitJob starts an async job (kind "recommend" or "pareto") and
// returns its queued status immediately.
func (c *Client) SubmitJob(ctx context.Context, kind string, req RecommendationRequest) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodPost, "/v2/jobs", JobRequest{Kind: kind, Request: c.withDefaults(req)}, &out)
	return out, err
}

// GetJob polls one job.
func (c *Client) GetJob(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// JobProgress is one live progress observation delivered to a
// WithProgress callback while waiting on a job.
type JobProgress struct {
	// JobID identifies the job.
	JobID string

	// State is the job's lifecycle state at observation time.
	State string

	// Evaluated and SpaceSize are the enumeration's position: how
	// many of the k^n candidates have been accounted for. Zero until
	// the job's search loops report anything.
	Evaluated int64
	SpaceSize int64

	// Strategy is the concrete solver the job's search resolved to,
	// once known ("auto" requests see the heuristic's pick).
	Strategy string
}

// Fraction returns the completed share of the search space in [0, 1].
func (p JobProgress) Fraction() float64 {
	if p.SpaceSize <= 0 {
		return 0
	}
	f := float64(p.Evaluated) / float64(p.SpaceSize)
	if f > 1 {
		f = 1
	}
	return f
}

// progressOf maps a job status to its progress observation.
func progressOf(status JobStatus) JobProgress {
	p := JobProgress{JobID: status.ID, State: status.State}
	if status.Progress != nil {
		p.Evaluated = status.Progress.Evaluated
		p.SpaceSize = status.Progress.SpaceSize
		p.Strategy = status.Progress.Strategy
	}
	return p
}

// waitConfig collects WaitJob's per-call options.
type waitConfig struct {
	onProgress func(JobProgress)
}

// WaitOption customizes one WaitJob call.
type WaitOption func(*waitConfig)

// WithProgress registers a callback receiving live progress while the
// job runs: state transitions and evaluated/space_size updates. The
// client subscribes to the server's Server-Sent Events stream and
// falls back to polling against servers (or transports) that cannot
// stream; either way the callback observes a monotonically advancing
// enumeration. The callback runs on the waiting goroutine — keep it
// fast.
func WithProgress(fn func(JobProgress)) WaitOption {
	return func(c *waitConfig) { c.onProgress = fn }
}

// WaitJob waits until the job reaches a terminal state or ctx
// expires, streaming progress when a WithProgress option asks for it
// and polling with exponential backoff otherwise.
func (c *Client) WaitJob(ctx context.Context, id string, opts ...WaitOption) (JobStatus, error) {
	var cfg waitConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.onProgress != nil {
		if status, handled, err := c.streamJob(ctx, id, cfg.onProgress); handled {
			return status, err
		}
		// SSE unavailable (older server, buffering proxy, transport
		// error mid-stream): degrade to polling below.
	}

	interval := c.pollBase
	const maxInterval = time.Second
	var last JobProgress
	reported := false
	for {
		status, err := c.GetJob(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if cfg.onProgress != nil {
			if p := progressOf(status); !reported || p != last {
				cfg.onProgress(p)
				last, reported = p, true
			}
		}
		if status.Terminal() {
			return status, nil
		}
		select {
		case <-ctx.Done():
			return status, ctx.Err()
		case <-time.After(interval):
		}
		if interval < maxInterval {
			interval *= 2
			if interval > maxInterval {
				interval = maxInterval
			}
		}
	}
}

// streamJob consumes GET /v2/jobs/{id}/events as Server-Sent Events.
// handled reports whether the stream answered the wait; false means
// the caller should fall back to polling (it is returned with a nil
// error for transport-level trouble, so the fallback decides what the
// client ultimately sees).
func (c *Client) streamJob(ctx context.Context, id string, onProgress func(JobProgress)) (status JobStatus, handled bool, err error) {
	req, reqErr := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v2/jobs/"+url.PathEscape(id)+"/events", nil)
	if reqErr != nil {
		return JobStatus{}, false, nil
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, doErr := c.http.Do(req)
	if doErr != nil {
		// Context cancellation is final; other transport errors fall
		// back to polling.
		if ctx.Err() != nil {
			return JobStatus{}, true, ctx.Err()
		}
		return JobStatus{}, false, nil
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// 404s, problems and polling-fallback JSON all route through
		// GetJob for a properly typed error.
		return JobStatus{}, false, nil
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "" && len(data) > 0:
			var st JobStatus
			if jsonErr := json.Unmarshal(data, &st); jsonErr != nil {
				return JobStatus{}, false, nil
			}
			data = data[:0]
			onProgress(progressOf(st))
			if st.Terminal() {
				// Stream events never carry the result payload; fetch
				// the full job document now that it is final.
				full, getErr := c.GetJob(ctx, id)
				if getErr != nil {
					return JobStatus{}, true, getErr
				}
				return full, true, nil
			}
		}
	}
	if ctx.Err() != nil {
		return JobStatus{}, true, ctx.Err()
	}
	// Stream ended without a terminal event (server restarted, proxy
	// timeout): resume by polling.
	return JobStatus{}, false, nil
}

// ListOption narrows a ListJobs call.
type ListOption func(url.Values)

// WithStateFilter restricts the listing to one lifecycle state
// (queued, running, done, failed or cancelled).
func WithStateFilter(state string) ListOption {
	return func(q url.Values) {
		if state != "" {
			q.Set("state", state)
		}
	}
}

// WithLimit caps how many jobs the server returns (newest first).
func WithLimit(n int) ListOption {
	return func(q url.Values) {
		if n > 0 {
			q.Set("limit", strconv.Itoa(n))
		}
	}
}

// ListJobs lists the server's retained jobs, newest first, optionally
// filtered and paginated.
func (c *Client) ListJobs(ctx context.Context, opts ...ListOption) ([]JobStatus, error) {
	q := url.Values{}
	for _, opt := range opts {
		opt(q)
	}
	path := "/v2/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out.Jobs, err
}

// RecommendBatch prices many scenarios in one call; the server fans
// them out across its worker pool. Per-item failures appear on the
// corresponding result entries, not as a call error.
func (c *Client) RecommendBatch(ctx context.Context, reqs []RecommendationRequest) (BatchResponse, error) {
	stamped := make([]RecommendationRequest, len(reqs))
	for i, req := range reqs {
		stamped[i] = c.withDefaults(req)
	}
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, "/v2/recommendations/batch", BatchRequest{Requests: stamped}, &out)
	return out, err
}

// retryableStatus reports whether a response status is worth retrying
// on an idempotent call.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// maxRetryDelay caps any single wait between attempts — exponential
// growth and server-directed Retry-After alike — so a long retry
// budget cannot park a caller for minutes.
const maxRetryDelay = 30 * time.Second

// retryDelay computes the wait before retry number attempt (1-based).
// The base doubles per attempt with the shift capped so it cannot
// overflow time.Duration, the result clamps to maxRetryDelay, and full
// jitter draws uniformly from (0, d] so synchronized clients spread
// out instead of reconverging on the server in lockstep.
func (c *Client) retryDelay(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 20 { // 100ms << 20 is already over maxRetryDelay
		shift = 20
	}
	d := c.backoff << shift
	if d <= 0 || d > maxRetryDelay {
		d = maxRetryDelay
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// serverRetryAfter extracts a server-directed wait from the previous
// attempt's error, zero when the server did not name one.
func serverRetryAfter(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		if apiErr.RetryAfter > maxRetryDelay {
			return maxRetryDelay
		}
		return apiErr.RetryAfter
	}
	return 0
}

// parseRetryAfter reads a Retry-After response header: delta-seconds
// or an HTTP-date, per RFC 9110 §10.2.3. Zero when absent or
// malformed.
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// do performs one round trip with JSON bodies in both directions,
// retrying idempotent calls per the client's retry policy.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("httpapi: encoding request: %w", err)
		}
		payload = buf
	}

	idempotent := method == http.MethodGet
	attempts := 1
	if idempotent {
		attempts += c.retries
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// A server-directed Retry-After beats the local backoff:
			// the server knows when capacity returns, the client is
			// guessing.
			delay := serverRetryAfter(lastErr)
			if delay == 0 {
				delay = c.retryDelay(attempt)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		retry, err := c.roundTrip(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retry {
			return err
		}
	}
	return lastErr
}

// roundTrip performs a single exchange; retry reports whether the
// failure is transient enough to try again.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte, out any) (retry bool, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return false, fmt.Errorf("httpapi: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}

	resp, err := c.http.Do(req)
	if err != nil {
		// Transport errors are retryable unless the context is done.
		return ctx.Err() == nil, fmt.Errorf("httpapi: %s %s: %w", method, path, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()

	if resp.StatusCode >= 400 {
		apiErr := &APIError{
			Status:     resp.StatusCode,
			Method:     method,
			Path:       path,
			RetryAfter: parseRetryAfter(resp),
		}
		var prob Problem
		if decodeErr := json.NewDecoder(resp.Body).Decode(&prob); decodeErr == nil {
			apiErr.Code = prob.Code
			apiErr.Title = prob.Title
			apiErr.RequestID = prob.RequestID
			apiErr.Detail = prob.Detail
			if apiErr.Detail == "" {
				apiErr.Detail = prob.LegacyError
			}
		}
		if apiErr.Code == "" {
			apiErr.Code = CodeInternal
		}
		return retryableStatus(resp.StatusCode), apiErr
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("httpapi: decoding response: %w", err)
	}
	return false, nil
}
