package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/jobs"
	"uptimebroker/internal/jobstore"
)

// Job kinds accepted by POST /v2/jobs.
const (
	JobKindRecommend = "recommend"
	JobKindPareto    = "pareto"
)

// JobRequest is the body of POST /v2/jobs: which brokerage flow to
// run asynchronously, and its request.
type JobRequest struct {
	// Kind is "recommend" or "pareto".
	Kind string `json:"kind"`

	// Request is the recommendation request the job runs.
	Request RecommendationRequest `json:"request"`
}

// JobErrorDTO is the failure recorded on a failed (or cancelled) job.
type JobErrorDTO struct {
	// Code is the stable machine-readable failure class, mirroring
	// the problem codes of the synchronous routes.
	Code string `json:"code"`

	// Detail is the human-readable failure.
	Detail string `json:"detail"`
}

// JobDTO is the wire form of one async job.
type JobDTO struct {
	// ID addresses the job under /v2/jobs/{id}.
	ID string `json:"id"`

	// Kind echoes the submitted kind.
	Kind string `json:"kind"`

	// State is queued, running, done, failed or cancelled.
	State string `json:"state"`

	// CreatedAt, StartedAt and FinishedAt stamp the transitions
	// (RFC 3339); started_at/finished_at are omitted until reached.
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Result carries the job's payload once state is done: a
	// RecommendationResponse for recommend jobs, []OptionCardDTO for
	// pareto jobs.
	Result any `json:"result,omitempty"`

	// Progress reports the enumeration's position once the job's
	// search loops have reported any; absent before that.
	Progress *JobProgressDTO `json:"progress,omitempty"`

	// Error describes the failure once state is failed or cancelled.
	Error *JobErrorDTO `json:"error,omitempty"`
}

// JobProgressDTO is the wire form of a job's live search progress.
type JobProgressDTO struct {
	// Evaluated is how many of the space's candidates have been
	// accounted for (priced or clipped) so far.
	Evaluated int64 `json:"evaluated"`

	// SpaceSize is k^n, the full candidate space.
	SpaceSize int64 `json:"space_size"`

	// Percent is 100 × Evaluated/SpaceSize, clamped to [0, 100].
	Percent float64 `json:"percent"`

	// Strategy is the concrete solver strategy the job's search
	// resolved to, once it has reported one ("auto" requests see the
	// heuristic's pick).
	Strategy string `json:"strategy,omitempty"`
}

// JobListResponse is the body of GET /v2/jobs.
type JobListResponse struct {
	// Jobs lists the retained jobs, newest first, without results
	// (poll the individual job for its payload). With ?limit= it is
	// the first page only.
	Jobs []JobDTO `json:"jobs"`

	// Total counts the jobs matching the filter before pagination.
	Total int `json:"total"`

	// Metrics are the job subsystem's operational counters.
	Metrics jobs.Metrics `json:"metrics"`
}

// fromJob converts a job snapshot to wire form. withResult controls
// whether the (potentially large) result payload is included.
func fromJob(snap jobs.Snapshot, withResult bool) JobDTO {
	dto := JobDTO{
		ID:        snap.ID,
		Kind:      snap.Kind,
		State:     string(snap.State),
		CreatedAt: snap.CreatedAt,
	}
	if !snap.StartedAt.IsZero() {
		t := snap.StartedAt
		dto.StartedAt = &t
	}
	if !snap.FinishedAt.IsZero() {
		t := snap.FinishedAt
		dto.FinishedAt = &t
	}
	if snap.SpaceSize > 0 || snap.Strategy != "" {
		dto.Progress = &JobProgressDTO{
			Evaluated: snap.Evaluated,
			SpaceSize: snap.SpaceSize,
			Percent:   100 * snap.Fraction(),
			Strategy:  snap.Strategy,
		}
	}
	if withResult && snap.Result != nil {
		dto.Result = snap.Result
	}
	if snap.Err != nil {
		code := engineCode(snap.Err)
		switch {
		case errors.Is(snap.Err, jobs.ErrRestartLost):
			code = CodeRestartLost
		case errors.Is(snap.Err, context.Canceled):
			code = CodeCancelled
		case errors.Is(snap.Err, jobs.ErrPanic), errors.Is(snap.Err, jobs.ErrClosed):
			// Server faults, not request errors.
			code = CodeInternal
		}
		dto.Error = &JobErrorDTO{Code: code, Detail: snap.Err.Error()}
	}
	return dto
}

// jobFn builds the executable work for one job kind. It is the
// single mapping from persisted (kind, request) pairs to code, used
// both by fresh submissions and by the recovery resolver re-queuing
// journaled jobs after a restart. The returned Fn threads a search
// progress hook from the enumeration loops into the job store.
func (s *Server) jobFn(kind string, req RecommendationRequest) (jobs.Fn, error) {
	breq := req.ToBroker()
	var run func(ctx context.Context) (any, error)
	switch kind {
	case JobKindRecommend:
		run = func(ctx context.Context) (any, error) {
			// The job has no response headers, so the cache disposition
			// travels inside the persisted result instead.
			var cacheStatus string
			ctx = broker.WithCacheReport(ctx, func(st string) { cacheStatus = st })
			rec, err := s.engine.Recommend(ctx, breq)
			if err != nil {
				return nil, err
			}
			resp := FromRecommendation(rec)
			resp.Cache = cacheStatus
			return resp, nil
		}
	case JobKindPareto:
		run = func(ctx context.Context) (any, error) {
			front, err := s.engine.Pareto(ctx, breq)
			if err != nil {
				return nil, err
			}
			return fromCards(front), nil
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q (want %q or %q)", kind, JobKindRecommend, JobKindPareto)
	}
	return func(ctx context.Context) (any, error) {
		jobCtx := ctx
		ctx = broker.WithSearchProgress(ctx, func(evaluated, spaceSize int64) {
			jobs.ReportProgress(jobCtx, evaluated, spaceSize)
		})
		ctx = broker.WithStrategyReport(ctx, func(strategy string) {
			jobs.ReportStrategy(jobCtx, strategy)
		})
		return run(ctx)
	}, nil
}

// jobResolver rebuilds recovered jobs' Fns from their journaled
// payloads; jobs.Open calls it for every job re-queued at startup.
func (s *Server) jobResolver(kind string, payload []byte) (jobs.Fn, error) {
	var req RecommendationRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("decoding persisted %q request: %w", kind, err)
	}
	return s.jobFn(kind, req)
}

// handleJobSubmit implements POST /v2/jobs: 202 Accepted with the
// queued job and a Location header for polling.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}

	// Load shedding: refuse work the pool cannot start within the
	// bound instead of queueing it into a wait the client would have
	// timed out of anyway. Retry-After carries the current estimate.
	if s.maxQueueWait > 0 {
		if wait := s.jobs.EstimatedQueueWait(); wait > s.maxQueueWait {
			s.loadShed.Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			s.problem(w, r, CodeLoadShed, http.StatusTooManyRequests,
				fmt.Sprintf("estimated queue wait %s exceeds the %s bound; retry later", wait.Round(time.Millisecond), s.maxQueueWait))
			return
		}
	}

	fn, err := s.jobFn(req.Kind, req.Request)
	if err != nil {
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest, err.Error())
		return
	}
	// The payload journaled with the job is what the resolver decodes
	// after a restart; an unmarshalable request cannot reach here
	// (decodeBody already parsed it).
	payload, err := json.Marshal(req.Request)
	if err != nil {
		s.problem(w, r, CodeInternal, http.StatusInternalServerError, err.Error())
		return
	}

	snap, err := s.jobs.Submit(req.Kind, payload, fn)
	switch {
	case errors.Is(err, jobstore.ErrDegraded):
		// Fail-stop persistence: the journal cannot record the job, so
		// accepting it would hand out work that vanishes on restart.
		// Synchronous routes keep serving; only submission closes.
		s.problem(w, r, CodeStoreDegraded, http.StatusServiceUnavailable,
			"job store is degraded to read-only after a storage failure; synchronous routes remain available")
		return
	case errors.Is(err, jobs.ErrQueueFull):
		s.problem(w, r, CodeQueueFull, http.StatusServiceUnavailable, "job queue is at capacity; retry later")
		return
	case errors.Is(err, jobs.ErrClosed):
		s.problem(w, r, CodeUnavailable, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		s.problem(w, r, CodeInternal, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/v2/jobs/"+snap.ID)
	s.writeJSON(w, r, http.StatusAccepted, fromJob(snap, false))
}

// handleJobGet implements GET /v2/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.problem(w, r, CodeJobNotFound, http.StatusNotFound, fmt.Sprintf("no job %q (it may have expired)", r.PathValue("id")))
		return
	}
	s.writeJSON(w, r, http.StatusOK, fromJob(snap, true))
}

// handleJobCancel implements DELETE /v2/jobs/{id}: cancels a queued
// or running job. Cancelling an already-finished job is a 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.problem(w, r, CodeJobNotFound, http.StatusNotFound, fmt.Sprintf("no job %q (it may have expired)", r.PathValue("id")))
		return
	case errors.Is(err, jobs.ErrFinished):
		s.problem(w, r, CodeJobFinished, http.StatusConflict,
			fmt.Sprintf("job %s already finished as %s", snap.ID, snap.State))
		return
	case err != nil:
		s.problem(w, r, CodeInternal, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeJSON(w, r, http.StatusOK, fromJob(snap, false))
}

// handleJobList implements GET /v2/jobs with optional ?state=
// filtering and ?limit= pagination, so a freshly recovered store
// holding thousands of journaled jobs does not dump them all on one
// page.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := jobs.State(q.Get("state"))
	switch stateFilter {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled:
	default:
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest,
			fmt.Sprintf("unknown state %q (want queued, running, done, failed or cancelled)", string(stateFilter)))
		return
	}
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest,
				fmt.Sprintf("limit %q is not a positive integer", ls))
			return
		}
		limit = n
	}

	snaps := s.jobs.List()
	out := make([]JobDTO, 0, len(snaps))
	for _, snap := range snaps {
		if stateFilter != "" && snap.State != stateFilter {
			continue
		}
		out = append(out, fromJob(snap, false))
	}
	total := len(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	s.writeJSON(w, r, http.StatusOK, JobListResponse{Jobs: out, Total: total, Metrics: s.jobs.Metrics()})
}

// handleJobEvents implements GET /v2/jobs/{id}/events.
//
// With "Accept: text/event-stream" it streams Server-Sent Events: a
// "state" event on every lifecycle transition, "progress" events as
// the enumeration advances, and a final "state" event (including the
// error for failed/cancelled jobs) when the job finishes, after
// which the stream closes. While the job is quiet the stream carries
// ": ping" comment frames on a timer (WithSSEPingInterval, default
// 15s) so idle proxies do not reap a connection that is merely
// waiting on a long enumeration; SSE parsers discard comment lines
// by specification. Event payloads never embed the result — one can
// be arbitrarily large, and the progress channel must stay cheap —
// so clients fetch GET /v2/jobs/{id} once the terminal event
// arrives. Clients that cannot speak SSE get a polling fallback: the
// current job snapshot (sans result) as a single JSON document.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, stop, err := s.jobs.Watch(id)
	if err != nil {
		s.problem(w, r, CodeJobNotFound, http.StatusNotFound, fmt.Sprintf("no job %q (it may have expired)", id))
		return
	}
	defer stop()

	flusher, canFlush := w.(http.Flusher)
	if !canFlush || !acceptsEventStream(r) {
		// Polling fallback. The first channel delivery is the current
		// snapshot and is already buffered.
		snap := <-ch
		s.writeJSON(w, r, http.StatusOK, fromJob(snap, false))
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// A nil channel (pings disabled) blocks forever in the select.
	var pingC <-chan time.Time
	var ping *time.Ticker
	if s.ssePing > 0 {
		ping = time.NewTicker(s.ssePing)
		defer ping.Stop()
		pingC = ping.C
	}

	lastState := ""
	seq := 0
	for {
		select {
		case snap, ok := <-ch:
			if !ok {
				return
			}
			name := "progress"
			if string(snap.State) != lastState {
				name = "state"
				lastState = string(snap.State)
			}
			payload, err := json.Marshal(fromJob(snap, false))
			if err != nil {
				s.logf("req=%s encoding SSE event for %s: %v", RequestIDFrom(r.Context()), id, err)
				return
			}
			seq++
			if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", name, seq, payload); err != nil {
				return // client went away
			}
			flusher.Flush()
			if snap.State.Terminal() {
				return
			}
			if ping != nil {
				ping.Reset(s.ssePing)
			}
		case <-pingC:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return // client went away
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// acceptsEventStream reports whether the request negotiates SSE.
func acceptsEventStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// BatchRequest is the body of POST /v2/recommendations/batch.
type BatchRequest struct {
	// Requests are the scenarios to price; they are fanned out across
	// the engine's worker pool and computed concurrently.
	Requests []RecommendationRequest `json:"requests"`
}

// BatchItemDTO is one request's outcome in a batch response. Exactly
// one of Recommendation and Error is set.
type BatchItemDTO struct {
	// Index is the request's position in the submitted slice.
	Index int `json:"index"`

	// Recommendation is the successful result.
	Recommendation *RecommendationResponse `json:"recommendation,omitempty"`

	// Error is the per-item failure; other items are unaffected.
	Error *JobErrorDTO `json:"error,omitempty"`
}

// BatchResponse is the body of a batch recommendation reply.
type BatchResponse struct {
	// Results has one entry per submitted request, in order.
	Results []BatchItemDTO `json:"results"`

	// Succeeded and Failed count the split.
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// maxBatchSize bounds one batch call; larger workloads should go
// through the async job surface one scenario at a time.
const maxBatchSize = 256

// handleBatch implements POST /v2/recommendations/batch with
// partial-failure semantics: the response is 200 whenever the batch
// itself was well-formed, and each item carries its own error.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest, "batch needs at least one request")
		return
	}
	if len(req.Requests) > maxBatchSize {
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-request limit", len(req.Requests), maxBatchSize))
		return
	}

	breqs := make([]broker.Request, len(req.Requests))
	for i, rr := range req.Requests {
		breqs[i] = rr.ToBroker()
	}
	s.markDegraded(w)
	items := s.engine.RecommendBatch(r.Context(), breqs)

	resp := BatchResponse{Results: make([]BatchItemDTO, len(items))}
	for i, item := range items {
		dto := BatchItemDTO{Index: item.Index}
		if item.Err != nil {
			code := engineCode(item.Err)
			if errors.Is(item.Err, context.Canceled) || errors.Is(item.Err, context.DeadlineExceeded) {
				code = CodeCancelled
			}
			dto.Error = &JobErrorDTO{Code: code, Detail: item.Err.Error()}
			resp.Failed++
		} else {
			rr := FromRecommendation(item.Rec)
			dto.Recommendation = &rr
			resp.Succeeded++
		}
		resp.Results[i] = dto
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}
