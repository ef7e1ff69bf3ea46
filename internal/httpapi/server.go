package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/faultfs"
	"uptimebroker/internal/jobs"
	"uptimebroker/internal/jobstore"
	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/scenario"
	"uptimebroker/internal/telemetry"
)

// maxBodyBytes bounds request bodies; topologies are small.
const maxBodyBytes = 1 << 20

// serverConfig collects the tunables behind the ServerOptions.
type serverConfig struct {
	rateLimit       float64
	rateBurst       int
	clientRateLimit float64
	clientRateBurst int
	trustProxy      bool
	jobTTL          time.Duration
	jobGC           time.Duration
	jobClock        func() time.Time
	jobWorkers      int
	jobQueue        int
	jobDir          string
	jobSnapInterval time.Duration
	jobFsync        bool
	jobGroupCommit  bool
	jobFS           faultfs.FS
	maxQueueWait    time.Duration
	ssePing         time.Duration
	registry        *obs.Registry
	metricsInterval time.Duration
}

// ServerOption customizes NewServer.
type ServerOption func(*serverConfig)

// WithRateLimit enables token-bucket limiting across all routes:
// rate requests/second with the given burst. rate <= 0 (the default)
// disables limiting.
func WithRateLimit(rate float64, burst int) ServerOption {
	return func(c *serverConfig) {
		c.rateLimit = rate
		c.rateBurst = burst
	}
}

// WithPerClientRateLimit enables per-client token buckets keyed on
// the client IP: each client gets rate requests/second with the
// given burst, isolating tenants from one another while
// WithRateLimit stays the overall cap. rate <= 0 (the default)
// disables it. The key is the connection's remote address unless
// WithTrustedProxy is also set.
func WithPerClientRateLimit(rate float64, burst int) ServerOption {
	return func(c *serverConfig) {
		c.clientRateLimit = rate
		c.clientRateBurst = burst
	}
}

// WithTrustedProxy declares that a trusted reverse proxy fronts the
// server and appends the real client to X-Forwarded-For; per-client
// rate limiting then keys on the rightmost XFF entry instead of the
// (proxy's) connection address. Do not set it for directly exposed
// servers — XFF is client-forgeable there.
func WithTrustedProxy() ServerOption {
	return func(c *serverConfig) { c.trustProxy = true }
}

// WithJobDir makes the async job store durable: submissions, state
// transitions, progress and results are journaled to a WAL in dir and
// recovered on the next start (queued jobs re-queued, mid-run jobs
// failed with a restart_lost error, finished results kept, job IDs
// strictly increasing across restarts). An empty dir (the default)
// keeps the store purely in-memory.
func WithJobDir(dir string) ServerOption {
	return func(c *serverConfig) { c.jobDir = dir }
}

// WithJobSnapshotInterval sets how often the durable job store
// compacts its WAL into a snapshot (default 1m). Only meaningful with
// WithJobDir.
func WithJobSnapshotInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.jobSnapInterval = d }
}

// WithJobFsync makes the durable job store fsync every WAL append, so
// acknowledged submissions survive a power loss, not just a process
// crash — at a per-append disk-flush latency cost (the jobstore
// benchmarks report the difference). Only meaningful with WithJobDir.
func WithJobFsync() ServerOption {
	return func(c *serverConfig) { c.jobFsync = true }
}

// WithJobGroupCommit gives job WAL appends fsync durability with
// concurrent appends coalesced into shared flushes (group commit):
// under load most of the nosync throughput comes back at the same
// power-loss guarantee. Supersedes WithJobFsync when both are set.
// Only meaningful with WithJobDir.
func WithJobGroupCommit() ServerOption {
	return func(c *serverConfig) { c.jobGroupCommit = true }
}

// WithJobFS routes the durable job store's disk access through fsys
// instead of the real filesystem — the fault-injection seam
// (faultfs.Mem, faultfs.Injector) for degraded-mode and crash tests.
// Only meaningful with WithJobDir; production wiring omits it.
func WithJobFS(fsys faultfs.FS) ServerOption {
	return func(c *serverConfig) { c.jobFS = fsys }
}

// WithJobMaxQueueWait sheds load on job submissions: when the
// estimated queue wait (mean run time × queue depth ÷ workers)
// exceeds d, POST /v2/jobs answers 429 load_shed with a Retry-After
// instead of accepting work it cannot start in time. d <= 0 (the
// default) disables shedding.
func WithJobMaxQueueWait(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.maxQueueWait = d }
}

// WithSSEPingInterval sets how often the /v2/jobs/{id}/events stream
// emits ": ping" keep-alive comments while a job is quiet (default
// 15s), so idle proxies do not reap long streams. SSE parsers discard
// comment frames per specification. d <= 0 disables keep-alives.
func WithSSEPingInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.ssePing = d }
}

// WithMetricsRegistry makes the server publish on (and serve from) an
// existing obs registry instead of creating its own — the way brokerd
// shares one registry between the engine and the HTTP layer. By
// default the server reuses the engine's registry when the engine is
// already instrumented, else creates a fresh one.
func WithMetricsRegistry(reg *obs.Registry) ServerOption {
	return func(c *serverConfig) { c.registry = reg }
}

// WithMetricsStreamInterval sets the default snapshot cadence of the
// GET /v2/metrics/events stream (default 2s); requests override it per
// call with ?interval=, clamped to [100ms, 1m].
func WithMetricsStreamInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d > 0 {
			c.metricsInterval = d
		}
	}
}

// WithJobTTL sets how long finished async jobs are retained for
// polling (default 15m).
func WithJobTTL(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.jobTTL = d }
}

// WithJobGCInterval sets how often expired jobs are swept (default
// 1m).
func WithJobGCInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.jobGC = d }
}

// WithJobClock sets the time source the job store stamps and expires
// jobs by (default time.Now), so TTL expiry can be driven without
// waiting on the wall clock.
func WithJobClock(now func() time.Time) ServerOption {
	return func(c *serverConfig) { c.jobClock = now }
}

// WithJobWorkers sets the async job worker pool size (default
// runtime.GOMAXPROCS).
func WithJobWorkers(n int) ServerOption {
	return func(c *serverConfig) { c.jobWorkers = n }
}

// WithJobQueueCapacity bounds the async job queue; submissions beyond
// it are rejected with a queue_full problem (default 1024).
func WithJobQueueCapacity(n int) ServerOption {
	return func(c *serverConfig) { c.jobQueue = n }
}

// Server is the brokerage HTTP facade: the synchronous v1 surface,
// plus the v2 job-oriented surface (async jobs, batch
// recommendations) with RFC 9457 problem+json errors throughout.
type Server struct {
	engine  *broker.Engine
	store   *telemetry.Store // optional; nil disables observation routes
	logger  *log.Logger
	jobs    *jobs.Store
	handler http.Handler
	ssePing time.Duration

	// registry is the server's metrics registry (never nil after
	// NewServer); metricsInterval paces the SSE metrics stream.
	registry        *obs.Registry
	metricsInterval time.Duration

	// maxQueueWait is the load-shedding bound on the estimated job
	// queue wait (0 = no shedding); loadShed counts shed submissions.
	maxQueueWait time.Duration
	loadShed     *obs.Counter

	// ready flips true once the job store is open and recovery is
	// complete, and back to false on Close — what GET /readyz reports.
	ready atomic.Bool

	// clientLimiter is the per-client bucket map when per-client rate
	// limiting is on; nil otherwise. Held here so its occupancy feeds
	// the ratelimit_client_buckets gauge.
	clientLimiter *clientBuckets
}

// NewServer wires the routes and starts the async job workers. store
// may be nil for a read-only broker; logger may be nil to disable
// request logging. Call Close when done to stop the job subsystem.
func NewServer(engine *broker.Engine, store *telemetry.Store, logger *log.Logger, opts ...ServerOption) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("httpapi: nil engine")
	}
	cfg := serverConfig{ssePing: 15 * time.Second, metricsInterval: 2 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}

	// Resolve the metrics registry: an explicit option wins, else share
	// the engine's (when its constructor attached one), else create a
	// private registry. Either way the engine ends up instrumented on
	// it — InstrumentMetrics is idempotent, so an engine that already
	// publishes elsewhere keeps its first registry.
	reg := cfg.registry
	if reg == nil {
		reg = engine.MetricsRegistry()
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	engine.InstrumentMetrics(reg)
	obs.RegisterBuildInfo(reg)

	var jobOpts []jobs.Option
	jobOpts = append(jobOpts, jobs.WithMetricsRegistry(reg))
	if cfg.jobTTL > 0 {
		jobOpts = append(jobOpts, jobs.WithTTL(cfg.jobTTL))
	}
	if cfg.jobGC > 0 {
		jobOpts = append(jobOpts, jobs.WithGCInterval(cfg.jobGC))
	}
	if cfg.jobClock != nil {
		jobOpts = append(jobOpts, jobs.WithClock(cfg.jobClock))
	}
	if cfg.jobWorkers > 0 {
		jobOpts = append(jobOpts, jobs.WithWorkers(cfg.jobWorkers))
	}
	if cfg.jobQueue > 0 {
		jobOpts = append(jobOpts, jobs.WithQueueCapacity(cfg.jobQueue))
	}
	if cfg.jobSnapInterval > 0 {
		jobOpts = append(jobOpts, jobs.WithSnapshotInterval(cfg.jobSnapInterval))
	}

	s := &Server{
		engine:          engine,
		store:           store,
		logger:          logger,
		ssePing:         cfg.ssePing,
		registry:        reg,
		metricsInterval: cfg.metricsInterval,
		maxQueueWait:    cfg.maxQueueWait,
	}
	s.loadShed = reg.Counter("http_load_shed_total",
		"Job submissions refused because the estimated queue wait exceeded the bound.")
	if cfg.jobDir != "" {
		fileOpts := []jobstore.FileOption{jobstore.WithMetricsRegistry(reg)}
		if cfg.jobFsync {
			fileOpts = append(fileOpts, jobstore.WithFsync())
		}
		if cfg.jobGroupCommit {
			fileOpts = append(fileOpts, jobstore.WithGroupCommit())
		}
		if cfg.jobFS != nil {
			fileOpts = append(fileOpts, jobstore.WithFS(cfg.jobFS))
		}
		backend, err := jobstore.OpenFile(cfg.jobDir, fileOpts...)
		if err != nil {
			return nil, fmt.Errorf("httpapi: opening job store: %w", err)
		}
		jobStore, err := jobs.Open(backend, s.jobResolver, jobOpts...)
		if err != nil {
			_ = backend.Close()
			return nil, fmt.Errorf("httpapi: recovering job store: %w", err)
		}
		s.jobs = jobStore
		if logger != nil {
			m := jobStore.Metrics()
			logger.Printf("recovered %d persisted jobs from %s (%d re-queued)", m.Recovered, cfg.jobDir, m.QueueDepth)
		}
	} else {
		s.jobs = jobs.NewStore(jobOpts...)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v2/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v2/metrics/events", s.handleMetricsEvents)

	// v1: the original synchronous surface, now thin wrappers over
	// the same context-aware handlers v2 uses. Its recommendations
	// list every option card, up to broker.MaxCards of them.
	mux.HandleFunc("POST /v1/recommendations", s.handleRecommendV1)
	mux.HandleFunc("POST /v1/pareto", s.handlePareto)
	mux.HandleFunc("GET /v1/catalog/technologies", s.handleTechnologies)
	mux.HandleFunc("GET /v1/catalog/providers", s.handleProviders)
	mux.HandleFunc("GET /v1/params", s.handleParams)
	mux.HandleFunc("POST /v1/observations", s.handleObservation)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/scenarios/{name}/recommendation", s.handleScenarioRecommendV1)

	// v2: same synchronous routes, answering with the best, min-risk
	// and as-is cards and paging the rest, plus the job-oriented
	// additions.
	mux.HandleFunc("POST /v2/recommendations", s.handleRecommend)
	mux.HandleFunc("POST /v2/recommendations/cards", s.handleCards)
	mux.HandleFunc("POST /v2/pareto", s.handlePareto)
	mux.HandleFunc("GET /v2/catalog/technologies", s.handleTechnologies)
	mux.HandleFunc("GET /v2/catalog/providers", s.handleProviders)
	mux.HandleFunc("GET /v2/params", s.handleParams)
	mux.HandleFunc("POST /v2/observations", s.handleObservation)
	mux.HandleFunc("GET /v2/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v2/scenarios/{name}/recommendation", s.handleScenarioRecommend)
	mux.HandleFunc("POST /v2/recommendations/batch", s.handleBatch)
	mux.HandleFunc("POST /v2/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v2/jobs", s.handleJobList)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleJobCancel)

	// The ServeMux's own 404/405 replies are plain text; wrap them
	// into problems so every error on the surface is problem+json.
	root := problemNotFound(mux)

	mws := []Middleware{
		RequestID(),
		Logging(logger),
		Recover(logger),
		routeMetrics(reg, mux),
	}
	if cfg.rateLimit > 0 {
		// Liveness and readiness probes must keep answering under
		// load: a limiter that 429s /healthz would get the server
		// restarted by the very traffic it is absorbing.
		mws = append(mws, exempt(RateLimit(cfg.rateLimit, cfg.rateBurst), "/healthz", "/readyz"))
	}
	if cfg.clientRateLimit > 0 {
		burst := cfg.clientRateBurst
		if burst < 1 {
			burst = 1
		}
		s.clientLimiter = newClientBuckets(cfg.clientRateLimit, burst, nil)
		reg.GaugeFunc("ratelimit_client_buckets", "Live per-client rate-limit buckets.",
			func() float64 { return float64(s.clientLimiter.size()) })
		mws = append(mws, exempt(perClientRateLimitBuckets(s.clientLimiter, cfg.trustProxy), "/healthz", "/readyz"))
	}
	mws = append(mws, MaxBody(maxBodyBytes))
	s.handler = Chain(root, mws...)
	s.ready.Store(true)
	return s, nil
}

// problemNotFound intercepts the mux's text 404/405 fallbacks and
// rewrites them as problems, leaving matched routes untouched.
func problemNotFound(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		if pattern == "" {
			// No route matched: distinguish 405 (path known under
			// another method) from 404 by probing the mux with the
			// other methods.
			if allowed := allowedMethods(mux, r); len(allowed) > 0 {
				w.Header().Set("Allow", strings.Join(allowed, ", "))
				p := NewProblem(CodeMethodNotAllowed, http.StatusMethodNotAllowed,
					fmt.Sprintf("%s not allowed on %s", r.Method, r.URL.Path))
				p.RequestID = RequestIDFrom(r.Context())
				writeProblem(w, p)
				return
			}
			p := NewProblem(CodeNotFound, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
			p.RequestID = RequestIDFrom(r.Context())
			writeProblem(w, p)
			return
		}
		// Dispatch through the mux itself (not the handler returned
		// above) so it sets the request's matched path values.
		mux.ServeHTTP(w, r)
	})
}

// allowedMethods lists the other methods that match the request path
// (the 405 case); empty means a plain 404.
func allowedMethods(mux *http.ServeMux, r *http.Request) []string {
	var allowed []string
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
		if m == r.Method {
			continue
		}
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := mux.Handler(probe); pattern != "" {
			allowed = append(allowed, m)
		}
	}
	return allowed
}

// ServeHTTP implements http.Handler through the middleware chain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close stops the async job subsystem: running jobs are cancelled,
// queued jobs marked cancelled. The server reports not-ready on
// GET /readyz from the moment Close begins.
func (s *Server) Close() {
	s.ready.Store(false)
	s.jobs.Close()
}

// Jobs exposes the job store's metrics for operational surfaces.
func (s *Server) JobMetrics() jobs.Metrics { return s.jobs.Metrics() }

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// problem writes an RFC 9457 error tagged with the request ID.
func (s *Server) problem(w http.ResponseWriter, r *http.Request, code string, status int, detail string) {
	p := NewProblem(code, status, detail)
	p.RequestID = RequestIDFrom(r.Context())
	writeProblem(w, p)
}

// writeJSON emits a success payload. Encode failures (client gone,
// payload unmarshalable) cannot be reported to the client once the
// status line is out, so they are logged instead of discarded.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("req=%s encoding %s %s response: %v", RequestIDFrom(r.Context()), r.Method, r.URL.Path, err)
	}
}

// decodeBody decodes a JSON request body, writing the problem itself
// on failure. Failures inside a request's "solver" object — the one
// strictly decoded member — get their own code so clients can tell a
// mistyped solver knob from a malformed body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		code := CodeInvalidBody
		var solverErr *SolverSpecError
		if errors.As(err, &solverErr) {
			code = CodeInvalidSolver
		}
		s.problem(w, r, code, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// markDegraded advertises serve-through on a latched job store: the
// synchronous recommend/pareto routes keep answering (cache included)
// while persistence is read-only, and X-Degraded: store tells clients
// the response came from a broker in that state. Must run before the
// status line is written.
func (s *Server) markDegraded(w http.ResponseWriter) {
	if s.jobs.Degraded() != nil {
		w.Header().Set("X-Degraded", "store")
	}
}

// cacheStatusContext wires the engine's cache-report hook into the
// response: the X-Cache header is set the moment the engine resolves
// the request (synchronously, before any handler writes the status
// line), and the captured status lets handlers with a response
// envelope echo it in the body. On cache-less engines the hook never
// fires, the header stays absent and the captured status empty.
func cacheStatusContext(w http.ResponseWriter, r *http.Request) (context.Context, *string) {
	status := new(string)
	ctx := broker.WithCacheReport(r.Context(), func(st string) {
		*status = st
		w.Header().Set("X-Cache", st)
	})
	return ctx, status
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req RecommendationRequest
	if s.decodeBody(w, r, &req) {
		s.answer(w, r, req.ToBroker(), false)
	}
}

func (s *Server) handleRecommendV1(w http.ResponseWriter, r *http.Request) {
	var req RecommendationRequest
	if s.decodeBody(w, r, &req) {
		s.answer(w, r, req.ToBroker(), true)
	}
}

// answer runs the brokerage for a recommendation route and writes the
// response. With all set — the v1 routes — the response lists every
// option card, refusing spaces of more than broker.MaxCards options;
// the v2 routes answer with the best, min-risk and as-is cards alone.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, req broker.Request, all bool) {
	s.markDegraded(w)
	ctx, cacheStatus := cacheStatusContext(w, r)
	var cards []broker.OptionCard
	if all {
		var space int
		var err error
		cards, space, err = s.engine.Cards(ctx, req, 0, broker.MaxCards)
		if err == nil && space > broker.MaxCards {
			err = fmt.Errorf("%w: v1 lists all %d options of this space, at most %d; use /v2/recommendations and page /v2/recommendations/cards",
				broker.ErrCardCap, space, broker.MaxCards)
		}
		if err != nil {
			s.engineProblem(w, r, err)
			return
		}
	}
	rec, err := s.engine.Recommend(ctx, req)
	if err != nil {
		s.engineProblem(w, r, err)
		return
	}
	resp := FromRecommendation(rec)
	if all {
		resp.Cards = fromCards(cards)
	}
	resp.Cache = *cacheStatus
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleCards implements POST /v2/recommendations/cards: one page of
// the request's option listing, from ?offset= (default 0) for ?limit=
// cards (default and maximum broker.MaxCards).
func (s *Server) handleCards(w http.ResponseWriter, r *http.Request) {
	offset, limit := 0, broker.MaxCards
	for _, p := range []struct {
		name string
		dst  *int
	}{{"offset", &offset}, {"limit", &limit}} {
		if v := r.URL.Query().Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest,
					fmt.Sprintf("%s %q is not a non-negative integer", p.name, v))
				return
			}
			*p.dst = n
		}
	}
	var req RecommendationRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.markDegraded(w)
	cards, space, err := s.engine.Cards(r.Context(), req.ToBroker(), offset, limit)
	if err != nil {
		s.engineProblem(w, r, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, CardPageResponse{Cards: fromCards(cards), Offset: offset, SpaceSize: space})
}

// engineCode classifies an engine failure: a valid request whose
// answer is too large to compute or list exactly (the frontier DP's
// state cap, the card cap, or a job failure journaled as either) is
// answer_too_large, anything else the request's own fault.
func engineCode(err error) string {
	if errors.Is(err, optimize.ErrFrontierStateCap) || errors.Is(err, broker.ErrCardCap) || errors.Is(err, jobs.ErrTooLarge) {
		return CodeAnswerTooLarge
	}
	return CodeInvalidRequest
}

// engineProblem writes an engine failure as a 422 problem.
func (s *Server) engineProblem(w http.ResponseWriter, r *http.Request, err error) {
	s.problem(w, r, engineCode(err), http.StatusUnprocessableEntity, err.Error())
}

func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	var req RecommendationRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.markDegraded(w)
	// The frontier response is a bare card array with no envelope for
	// a cache member; X-Cache alone carries the disposition.
	ctx, _ := cacheStatusContext(w, r)
	front, err := s.engine.Pareto(ctx, req.ToBroker())
	if err != nil {
		s.engineProblem(w, r, err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, fromCards(front))
}

// handleMetrics implements GET /v1/metrics and /v2/metrics: job
// subsystem counters, result-cache counters (when caching is on) and
// the invalidation epochs behind the cache's content addresses.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{
		Jobs:         s.jobs.Metrics(),
		CatalogEpoch: s.engine.Catalog().Epoch(),
	}
	if m, ok := s.engine.CacheMetrics(); ok {
		dto := fromCacheMetrics(m)
		resp.Cache = &dto
	}
	if epoch, ok := s.engine.ParamsEpoch(); ok {
		resp.ParamsEpoch = &epoch
	}
	if s.clientLimiter != nil {
		resp.RateLimiter = &RateLimiterMetricsDTO{ClientBuckets: s.clientLimiter.size()}
	}
	build := obs.CurrentBuild()
	resp.Build = &BuildInfoDTO{
		Version:       build.Version,
		GoVersion:     build.GoVersion,
		StartedAt:     obs.ProcessStart(),
		UptimeSeconds: time.Since(obs.ProcessStart()).Seconds(),
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleTechnologies(w http.ResponseWriter, r *http.Request) {
	techs := s.engine.Catalog().Technologies()
	out := make([]TechnologyDTO, len(techs))
	for i, t := range techs {
		out[i] = FromTechnology(t)
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) handleProviders(w http.ResponseWriter, r *http.Request) {
	providers := s.engine.Catalog().Providers()
	out := make([]ProviderDTO, len(providers))
	for i, p := range providers {
		out[i] = FromProvider(p)
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	class := r.URL.Query().Get("class")
	if provider == "" || class == "" {
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest, "provider and class query parameters are required")
		return
	}

	// Prefer the live telemetry estimate, mirroring
	// broker.TelemetryParams; fall back to the catalog defaults only
	// when the store simply has nothing yet — a store that *fails* is
	// a server fault and must surface as one, not silently degrade.
	if s.store != nil {
		est, err := s.store.Estimate(provider, class)
		switch {
		case err == nil:
			s.writeJSON(w, r, http.StatusOK, ParamsResponse{
				Provider:           provider,
				Class:              class,
				Down:               est.Node.Down,
				FailuresPerYear:    est.Node.FailuresPerYear,
				FailoverSeconds:    est.Failover.Seconds(),
				FailoverP95Seconds: est.FailoverP95.Seconds(),
				ExposureYears:      est.ExposureYears,
				Source:             "telemetry",
			})
			return
		case !errors.Is(err, telemetry.ErrNoEstimate):
			s.problem(w, r, CodeTelemetryError, http.StatusInternalServerError, err.Error())
			return
		}
	}
	params, err := s.engine.Catalog().DefaultNodeParams(provider, class)
	if err != nil {
		s.problem(w, r, CodeNotFound, http.StatusNotFound, err.Error())
		return
	}
	s.writeJSON(w, r, http.StatusOK, ParamsResponse{
		Provider:        provider,
		Class:           class,
		Down:            params.Down,
		FailuresPerYear: params.FailuresPerYear,
		Source:          "catalog",
	})
}

func (s *Server) handleObservation(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.problem(w, r, CodeTelemetryDisabled, http.StatusNotImplemented, "telemetry ingestion disabled")
		return
	}
	var obs Observation
	if !s.decodeBody(w, r, &obs) {
		return
	}
	if err := obs.Validate(); err != nil {
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest, err.Error())
		return
	}
	var err error
	switch obs.Kind {
	case ObservationOutage:
		err = s.store.RecordOutage(obs.Provider, obs.Class, obs.Duration())
	case ObservationFailover:
		err = s.store.RecordFailover(obs.Provider, obs.Class, obs.Duration())
	case ObservationExposure:
		err = s.store.RecordExposure(obs.Provider, obs.Class, obs.Duration())
	}
	if err != nil {
		s.problem(w, r, CodeInvalidRequest, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, r, http.StatusAccepted, map[string]string{"status": "recorded"})
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	if provider == "" {
		provider = catalog.ProviderSoftLayerSim
	}
	all := scenario.All(provider)
	out := make([]ScenarioDTO, len(all))
	for i, sc := range all {
		out[i] = ScenarioDTO{
			Name:              sc.Name,
			Description:       sc.Description,
			Provider:          sc.Request.Base.Provider,
			Components:        len(sc.Request.Base.Components),
			SLAPercent:        sc.Request.SLA.UptimePercent,
			PenaltyPerHourUSD: sc.Request.SLA.Penalty.PerHour.Dollars(),
		}
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

func (s *Server) handleScenarioRecommend(w http.ResponseWriter, r *http.Request) {
	s.scenarioAnswer(w, r, false)
}

func (s *Server) handleScenarioRecommendV1(w http.ResponseWriter, r *http.Request) {
	s.scenarioAnswer(w, r, true)
}

// scenarioAnswer answers a built-in scenario like a recommendation
// route (see answer).
func (s *Server) scenarioAnswer(w http.ResponseWriter, r *http.Request, all bool) {
	provider := r.URL.Query().Get("provider")
	if provider == "" {
		provider = catalog.ProviderSoftLayerSim
	}
	sc, err := scenario.ByName(r.PathValue("name"), provider)
	if err != nil {
		s.problem(w, r, CodeNotFound, http.StatusNotFound, err.Error())
		return
	}
	s.answer(w, r, sc.Request, all)
}
