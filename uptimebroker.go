// Package uptimebroker is the public facade of an uptime-optimized
// cloud-architecture brokerage, a full reproduction of Venkateswaran &
// Sarkar, "Uptime-Optimized Cloud Architecture as a Brokered Service"
// (DSN 2017).
//
// Given a base cloud architecture (a serial chain of compute, storage
// and network clusters), an uptime SLA and a slippage penalty, the
// broker searches every HA-enabled variant of the architecture —
// each variant's expected uptime from the paper's probabilistic
// failure model, its monthly total cost of ownership (HA cost +
// expected penalty) — and recommends the cheapest variant. The answer
// carries the best, min-risk and as-is option cards; any other card
// is priced on demand.
//
// In-process quick start — every engine entry point takes a
// context.Context and aborts its search when the context is
// cancelled:
//
//	engine, err := uptimebroker.DefaultEngine()
//	if err != nil { ... }
//	rec, err := engine.Recommend(ctx, uptimebroker.CaseStudy())
//	if err != nil { ... }
//	fmt.Println(rec.Best().Label(), rec.Best().TCO)
//	cards, space, err := engine.Cards(ctx, uptimebroker.CaseStudy(), 0, uptimebroker.MaxCards)
//
// Many scenarios price concurrently across a bounded worker pool:
//
//	items := engine.RecommendBatch(ctx, []uptimebroker.Request{reqA, reqB})
//
// Over HTTP, the v2 client speaks the job-oriented surface — submit
// asynchronous work, poll or wait for it, cancel it mid-run — with
// retries and typed RFC 9457 errors:
//
//	client, err := uptimebroker.NewClient("http://broker:8080",
//		uptimebroker.WithRetries(3))
//	if err != nil { ... }
//	wire := uptimebroker.WireRequest(uptimebroker.CaseStudy())
//	job, err := client.SubmitJob(ctx, "recommend", wire)
//	if err != nil { ... }
//	job, err = client.WaitJob(ctx, job.ID)
//	if err != nil {
//		var apiErr *uptimebroker.APIError
//		if errors.As(err, &apiErr) { fmt.Println(apiErr.Code) }
//	}
//	resp, err := job.Recommendation()
//
// See docs/api.md for every v1 and v2 route with examples. The facade
// re-exports the domain types from the internal packages; downstream
// code only imports this package (plus the standard library).
package uptimebroker

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cloudsim"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/failsim"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/jobs"
	"uptimebroker/internal/jobstore"
	"uptimebroker/internal/lifecycle"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/report"
	"uptimebroker/internal/telemetry"
	"uptimebroker/internal/topology"
)

// Domain types re-exported for downstream use.
type (
	// System is a base cloud solution architecture.
	System = topology.System
	// Component is one cluster slot of a base architecture.
	Component = topology.Component
	// Layer identifies an infrastructure layer.
	Layer = topology.Layer

	// Money is an exact monetary amount (micro-dollars).
	Money = cost.Money
	// SLA is an uptime service-level agreement with penalty clause.
	SLA = cost.SLA
	// Penalty is a slippage penalty clause.
	Penalty = cost.Penalty

	// Cluster is a k-redundancy cluster in the availability model.
	Cluster = availability.Cluster
	// AvailabilitySystem is a serial combination of clusters.
	AvailabilitySystem = availability.System
	// NodeParams are per-node reliability parameters (P, f).
	NodeParams = availability.NodeParams

	// Catalog is the broker's HA technology and provider inventory.
	Catalog = catalog.Catalog
	// HATechnology is one purchasable redundancy mechanism.
	HATechnology = catalog.HATechnology
	// Provider is one cloud in the broker's portfolio.
	Provider = catalog.Provider

	// Engine is the brokerage core.
	Engine = broker.Engine
	// EngineOption customizes NewEngine (result cache, metrics).
	EngineOption = broker.EngineOption
	// Request is a brokerage request.
	Request = broker.Request
	// Problem is the compiled search instance; obtain one from
	// Engine.Compile.
	Problem = optimize.Problem
	// SolverResult is a search's outcome: the optimum under both
	// orderings plus effort statistics — and, for a budget-stopped
	// frontier run, the certified bound/gap/optimal certificate.
	SolverResult = optimize.Result
	// SolverConfig is the nested solver specification carried by
	// Request.Solver: the strategy plus its budget. The zero value
	// means "auto with no limits".
	SolverConfig = optimize.SolverConfig
	// SolverBudget caps a search's wall-clock time and/or evaluations
	// (SolverConfig.Budget); frontier stops at the cap and certifies
	// its incumbent.
	SolverBudget = optimize.Budget
	// Candidate is one fully evaluated deployment option.
	Candidate = optimize.Candidate
	// Assignment selects one variant index per component.
	Assignment = optimize.Assignment
	// ComponentChoices is one decision dimension of a Problem.
	ComponentChoices = optimize.ComponentChoices
	// Variant is one HA choice for one component.
	Variant = optimize.Variant
	// Cursor is a position in a compiled Problem's candidate space
	// with checkpointed evaluation state: moving it re-folds only the
	// changed assignment digits (amortized O(1) per enumeration step,
	// zero steady-state allocations), with uptime/TCO bit-identical
	// to the from-scratch Problem.Evaluate. Problem.StreamContext
	// presents every candidate through one for O(1)-memory streaming
	// consumption.
	Cursor = optimize.Cursor
	// SearchStats reports a recommendation's search effort and the
	// concrete solver strategy that ran.
	SearchStats = broker.SearchStats
	// Recommendation is a brokerage answer.
	Recommendation = broker.Recommendation
	// OptionCard is one priced solution option.
	OptionCard = broker.OptionCard
	// Plan maps components to HA technology IDs.
	Plan = broker.Plan
	// ParamSource resolves node reliability parameters.
	ParamSource = broker.ParamSource
	// CatalogParams reads parameters from catalog defaults.
	CatalogParams = broker.CatalogParams
	// TelemetryParams prefers live telemetry estimates.
	TelemetryParams = broker.TelemetryParams

	// ResultCache is the content-addressed recommendation cache an
	// engine can be fronted with (WithResultCache); build one with
	// NewResultCache.
	ResultCache = reccache.Cache
	// CacheConfig bounds a ResultCache: max entries, approximate byte
	// budget, optional TTL.
	CacheConfig = reccache.Config
	// CacheMetrics is a ResultCache's counter snapshot
	// (Engine.CacheMetrics).
	CacheMetrics = reccache.Metrics

	// TelemetryStore aggregates reliability observations.
	TelemetryStore = telemetry.Store

	// SimConfig parameterizes a Monte-Carlo validation run.
	SimConfig = failsim.Config
	// SimEstimate is a Monte-Carlo uptime estimate.
	SimEstimate = failsim.Estimate

	// Server is the HTTP facade of the brokerage.
	Server = httpapi.Server
	// ServerOption customizes NewServer (rate limiting, job TTL and
	// worker pool sizing).
	ServerOption = httpapi.ServerOption
	// Client is the typed HTTP client.
	Client = httpapi.Client
	// ClientOption customizes NewClient (transport, retries, polling).
	ClientOption = httpapi.ClientOption
	// APIError is the typed problem+json error the client returns;
	// unwrap with errors.As and dispatch on Code.
	APIError = httpapi.APIError
	// JobStatus is one async job's client-side state.
	JobStatus = httpapi.JobStatus
	// JobProgress is one live progress observation delivered to a
	// WithProgress callback while waiting on a job.
	JobProgress = httpapi.JobProgress
	// WaitOption customizes one Client.WaitJob call.
	WaitOption = httpapi.WaitOption
	// ListOption narrows one Client.ListJobs call.
	ListOption = httpapi.ListOption
	// JobStoreBackend is the pluggable persistence surface under the
	// async job store (memory and file implementations ship).
	JobStoreBackend = jobstore.Backend
	// BatchItem is one request's outcome within RecommendBatch.
	BatchItem = broker.BatchItem
	// JobMetrics are the job subsystem's operational counters.
	JobMetrics = jobs.Metrics
	// RecommendationRequest is the wire form of a brokerage request —
	// what the HTTP client's Recommend/SubmitJob/RecommendBatch take.
	RecommendationRequest = httpapi.RecommendationRequest
	// SolverConfigDTO is the wire form of SolverConfig — the nested
	// "solver" member of a RecommendationRequest.
	SolverConfigDTO = httpapi.SolverConfigDTO
	// RecommendationResponse is the wire form of a brokerage answer.
	RecommendationResponse = httpapi.RecommendationResponse
	// OptionCardDTO is the wire form of one solution option.
	OptionCardDTO = httpapi.OptionCardDTO
	// CardPageResponse is one page of a request's option listing
	// (Client.Cards).
	CardPageResponse = httpapi.CardPageResponse
	// BatchResponse is the wire form of a batch pricing reply.
	BatchResponse = httpapi.BatchResponse
	// MetricsResponse is the wire form of GET /v1/metrics: job
	// counters, result-cache counters and the data epochs
	// (Client.Metrics).
	MetricsResponse = httpapi.MetricsResponse

	// Cloud is a simulated IaaS provider control plane.
	Cloud = cloudsim.Cloud
	// Fleet is the simulated hybrid estate.
	Fleet = cloudsim.Fleet
	// Deployment records a provisioned system.
	Deployment = cloudsim.Deployment
	// VirtualClock is a manually driven time source for simulated
	// operation.
	VirtualClock = cloudsim.VirtualClock
	// ChaosMonkey injects seeded failures into a simulated cloud.
	ChaosMonkey = cloudsim.ChaosMonkey

	// Collector adapts simulator traces into telemetry observations.
	Collector = telemetry.Collector
	// ClusterID maps a simulated cluster to a telemetry bucket.
	ClusterID = telemetry.ClusterID

	// LifecycleConfig parameterizes a multi-epoch brokered operation
	// run (observe → re-optimize cycles).
	LifecycleConfig = lifecycle.Config
	// LifecycleEpoch is one epoch's outcome.
	LifecycleEpoch = lifecycle.Epoch

	// SensitivityRow reports marginal downtime per cluster parameter.
	SensitivityRow = availability.SensitivityRow
)

// Layer constants.
const (
	LayerCompute    = topology.LayerCompute
	LayerStorage    = topology.LayerStorage
	LayerNetwork    = topology.LayerNetwork
	LayerMiddleware = topology.LayerMiddleware
)

// Built-in provider names.
const (
	ProviderSoftLayerSim = catalog.ProviderSoftLayerSim
	ProviderNimbus       = catalog.ProviderNimbus
	ProviderStratus      = catalog.ProviderStratus
)

// Solver strategy names, selectable per request (Request.Solver /
// the wire "solver" object, or the deprecated flat "strategy" field),
// per client (WithStrategy / WithSolverConfig) and per uptimectl
// invocation (-strategy). Both searches are exact and differ only in
// latency and effort statistics; auto runs frontier. Frontier alone
// honors an evaluation budget, and when a budget stops it early it
// certifies the optimality gap of its incumbent
// (SearchStats.Bound/Gap/Optimal).
const (
	StrategyAuto       = optimize.StrategyAuto
	StrategyExhaustive = optimize.StrategyExhaustive
	StrategyFrontier   = optimize.StrategyFrontier
)

// Retired strategy names: deprecated aliases of StrategyFrontier.
//
// Deprecated: use StrategyFrontier or StrategyAuto.
const (
	StrategyPruned         = optimize.StrategyPruned
	StrategyBranchAndBound = optimize.StrategyBranchAndBound
	StrategyParallelPruned = optimize.StrategyParallelPruned
	StrategyBeam           = optimize.StrategyBeam
	StrategyLDS            = optimize.StrategyLDS
	StrategyBounded        = optimize.StrategyBounded
)

// MaxCards caps one card listing: Engine.Cards pages, a v1 response's
// full list.
const MaxCards = broker.MaxCards

// Strategies lists the selectable solver strategy names.
func Strategies() []string { return optimize.Strategies() }

// WithResultCache fronts the engine with a content-addressed
// recommendation cache: completed Recommend answers are stored under a
// stable hash of the catalog epoch, the parameter epoch and the
// normalized request, identical requests are answered from memory, and
// concurrent identical requests collapse onto a single solver run. Any
// catalog mutation or telemetry observation changes the epoch and
// therefore every content address, so stale answers are never served.
// The same cache holds the frontier folds behind the answers, keyed by
// what each fold reads; Pareto stores no answer and prices its
// architecture's cached fold on every call. Build the cache with
// NewResultCache.
func WithResultCache(c *ResultCache) EngineOption {
	return broker.WithResultCache(c)
}

// NewResultCache builds a bounded LRU result cache for
// WithResultCache. The zero Config is usable: 1024 entries, no byte
// budget, no TTL.
func NewResultCache(cfg CacheConfig) *ResultCache {
	return reccache.New(cfg)
}

// WithCacheReport returns a context that reports how the engine's
// cache answered the call — "hit", "miss" or "shared" — to fn,
// synchronously, before the engine entry point returns: Recommend's
// result lookup, or Pareto's fold lookup. The HTTP
// layer uses it to stamp the X-Cache response header; callers without
// a cached engine simply never hear from fn.
func WithCacheReport(ctx context.Context, fn func(status string)) context.Context {
	return broker.WithCacheReport(ctx, fn)
}

// Dollars converts a dollar amount to Money.
func Dollars(d float64) Money { return cost.Dollars(d) }

// DefaultCatalog returns the built-in catalog: the case-study
// mechanisms (hypervisor HA, RAID-1, dual gateways), the paper's
// future-work mechanisms, and three simulated providers.
func DefaultCatalog() *Catalog { return catalog.Default() }

// NewEngine builds a brokerage engine over a catalog and parameter
// source; options attach a result cache and a metrics registry.
func NewEngine(cat *Catalog, params ParamSource, opts ...EngineOption) (*Engine, error) {
	return broker.New(cat, params, opts...)
}

// DefaultEngine builds an engine over the built-in catalog with
// catalog-default reliability parameters.
func DefaultEngine() (*Engine, error) {
	cat := DefaultCatalog()
	return broker.New(cat, broker.CatalogParams{Catalog: cat})
}

// CaseStudy returns the paper's Section III client case study request.
func CaseStudy() Request { return broker.CaseStudy() }

// FutureWork returns the paper's Section V extended scenario.
func FutureWork(provider string) Request { return broker.FutureWork(provider) }

// ThreeTier returns the paper's three-tier base architecture template.
func ThreeTier(provider string) System { return topology.ThreeTier(provider) }

// FiveTierHybrid returns the future-work five-tier template.
func FiveTierHybrid(provider string) System { return topology.FiveTierHybrid(provider) }

// Simulate runs the Monte-Carlo failure simulator — the ground-truth
// check on the analytic uptime model.
func Simulate(ctx context.Context, cfg SimConfig) (SimEstimate, error) {
	return failsim.Run(ctx, cfg)
}

// NewTelemetryStore returns an empty telemetry store.
func NewTelemetryStore() *TelemetryStore { return telemetry.NewStore() }

// NewServer wires the brokerage HTTP service, including the async
// job subsystem (stop it with Server.Close). store may be nil for a
// read-only broker; logger may be nil to disable request logging.
func NewServer(engine *Engine, store *TelemetryStore, logger *log.Logger, opts ...ServerOption) (*Server, error) {
	return httpapi.NewServer(engine, store, logger, opts...)
}

// WithRateLimit enables server-side token-bucket rate limiting.
func WithRateLimit(rate float64, burst int) ServerOption {
	return httpapi.WithRateLimit(rate, burst)
}

// WithPerClientRateLimit enables per-client token buckets keyed on
// the client IP; WithRateLimit stays the overall cap.
func WithPerClientRateLimit(rate float64, burst int) ServerOption {
	return httpapi.WithPerClientRateLimit(rate, burst)
}

// WithTrustedProxy keys per-client limits on the rightmost
// X-Forwarded-For entry; only set it behind a trusted reverse proxy.
func WithTrustedProxy() ServerOption { return httpapi.WithTrustedProxy() }

// WithJobTTL sets how long the server retains finished async jobs.
func WithJobTTL(d time.Duration) ServerOption { return httpapi.WithJobTTL(d) }

// WithJobWorkers sets the server's async job worker pool size.
func WithJobWorkers(n int) ServerOption { return httpapi.WithJobWorkers(n) }

// WithJobDir makes the server's async job store durable: submissions,
// transitions, progress and results are journaled to a WAL in dir and
// recovered on the next start (queued jobs re-queued, mid-run jobs
// failed with a restart_lost error, finished results kept, IDs
// strictly increasing across restarts).
func WithJobDir(dir string) ServerOption { return httpapi.WithJobDir(dir) }

// WithJobSnapshotInterval sets how often the durable job store
// compacts its WAL into a snapshot.
func WithJobSnapshotInterval(d time.Duration) ServerOption {
	return httpapi.WithJobSnapshotInterval(d)
}

// WithJobFsync makes the durable job store fsync every WAL append for
// power-loss durability (only meaningful with WithJobDir).
func WithJobFsync() ServerOption { return httpapi.WithJobFsync() }

// WithSSEPingInterval sets the keep-alive comment cadence on job
// event streams (default 15s).
func WithSSEPingInterval(d time.Duration) ServerOption {
	return httpapi.WithSSEPingInterval(d)
}

// NewClient builds a typed client for a brokerage service URL.
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	return httpapi.NewClient(baseURL, nil, opts...)
}

// WithHTTPClient swaps the client's underlying *http.Client.
func WithHTTPClient(hc *http.Client) ClientOption { return httpapi.WithHTTPClient(hc) }

// WithRetries enables up to n retries of idempotent calls.
func WithRetries(n int) ClientOption { return httpapi.WithRetries(n) }

// WithRetryBackoff sets the client's base retry backoff.
func WithRetryBackoff(d time.Duration) ClientOption { return httpapi.WithRetryBackoff(d) }

// WithPollInterval sets WaitJob's initial poll interval.
func WithPollInterval(d time.Duration) ClientOption { return httpapi.WithPollInterval(d) }

// WithStrategy stamps a default solver strategy onto every outgoing
// recommendation-type request that makes no solver choice of its own;
// it composes with WithSolverConfig and WithBudget.
func WithStrategy(strategy string) ClientOption { return httpapi.WithStrategy(strategy) }

// WithSolverConfig stamps a default nested solver spec — strategy and
// budget — onto every outgoing recommendation-type
// request that makes no solver choice of its own.
func WithSolverConfig(cfg SolverConfigDTO) ClientOption { return httpapi.WithSolverConfig(cfg) }

// WithBudget stamps a default search budget (wall-clock cap and/or
// evaluation cap, zero meaning unlimited) onto every outgoing
// recommendation-type request that makes no solver choice of its own;
// it composes with WithStrategy and WithSolverConfig.
func WithBudget(wall time.Duration, maxEvaluations int64) ClientOption {
	return httpapi.WithBudget(wall, maxEvaluations)
}

// WithProgress makes one Client.WaitJob call stream live progress
// (state transitions plus evaluated/space_size from the enumeration)
// to the callback, over Server-Sent Events with a polling fallback.
func WithProgress(fn func(JobProgress)) WaitOption { return httpapi.WithProgress(fn) }

// WithStateFilter restricts one Client.ListJobs call to a lifecycle
// state (queued, running, done, failed or cancelled).
func WithStateFilter(state string) ListOption { return httpapi.WithStateFilter(state) }

// WithLimit caps how many jobs one Client.ListJobs call returns.
func WithLimit(n int) ListOption { return httpapi.WithLimit(n) }

// WireRequest converts a domain Request to the wire form the HTTP
// client sends — the bridge between in-process and over-the-wire use.
func WireRequest(req Request) RecommendationRequest {
	out := RecommendationRequest{
		Base:              req.Base,
		SLAPercent:        req.SLA.UptimePercent,
		PenaltyPerHourUSD: req.SLA.Penalty.PerHour.Dollars(),
		AsIs:              map[string]string(req.AsIs),
		AllowedTechs:      req.AllowedTechs,
		Strategy:          req.Strategy,
	}
	if s := req.Solver; s != (SolverConfig{}) {
		out.Solver = &SolverConfigDTO{
			Strategy:       s.Strategy,
			BudgetMS:       s.Budget.Wall.Milliseconds(),
			MaxEvaluations: s.Budget.MaxEvaluations,
		}
	}
	return out
}

// Uptime evaluates the analytic uptime U_s (Equation 4) of a clustered
// system.
func Uptime(sys AvailabilitySystem) float64 { return sys.Uptime() }

// DefaultFleet builds one simulated cloud per catalog provider, all
// wired to the given telemetry store (which may be nil).
func DefaultFleet(cat *Catalog, store *TelemetryStore) (*Fleet, error) {
	if store == nil {
		return cloudsim.DefaultFleet(cat)
	}
	return cloudsim.DefaultFleet(cat, cloudsim.WithTelemetry(store))
}

// DefaultFleetWithClock is DefaultFleet with a virtual clock driving
// every cloud — the setup ChaosMonkey needs.
func DefaultFleetWithClock(cat *Catalog, store *TelemetryStore, clock *VirtualClock) (*Fleet, error) {
	opts := []cloudsim.Option{cloudsim.WithClock(clock.Now)}
	if store != nil {
		opts = append(opts, cloudsim.WithTelemetry(store))
	}
	return cloudsim.DefaultFleet(cat, opts...)
}

// NewVirtualClock starts a virtual clock at the given instant.
func NewVirtualClock(start time.Time) *VirtualClock {
	return cloudsim.NewVirtualClock(start)
}

// NewChaosMonkey builds a seeded failure injector for one simulated
// cloud; rates map component classes to generative parameters.
func NewChaosMonkey(cloud *Cloud, clock *VirtualClock, rates map[string]NodeParams, seed int64) (*ChaosMonkey, error) {
	return cloudsim.NewChaosMonkey(cloud, clock, rates, seed)
}

// SimulateTraced runs one simulator replication with a Collector
// attached, feeding the telemetry store — the broker's observational
// learning loop.
func SimulateTraced(cfg SimConfig, col *Collector) (SimEstimate, error) {
	return failsim.RunTraced(cfg, col)
}

// CollectorForSystem builds a Collector mapping each cluster of a
// simulated system to a telemetry bucket.
func CollectorForSystem(store *TelemetryStore, sys AvailabilitySystem, ids []ClusterID) (*Collector, error) {
	return telemetry.CollectorForSystem(store, sys, ids)
}

// RunLifecycle plays the brokered service through observe-then-
// reoptimize epochs and returns the per-epoch decisions.
func RunLifecycle(cfg LifecycleConfig) ([]LifecycleEpoch, error) {
	return lifecycle.Run(cfg)
}

// ParetoCards filters option cards to the cost × uptime frontier.
func ParetoCards(cards []OptionCard) []OptionCard {
	return broker.ParetoCards(cards)
}

// WriteReport renders a recommendation and the option cards to list —
// its own, or a page of Engine.Cards — in the given format ("text",
// "markdown" or "csv") to w.
func WriteReport(w io.Writer, rec *Recommendation, cards []OptionCard, format string) error {
	switch format {
	case "text":
		return report.Text(w, rec, cards)
	case "markdown":
		return report.Markdown(w, rec, cards)
	case "csv":
		return report.CSV(w, rec, cards)
	default:
		return fmt.Errorf("uptimebroker: unknown report format %q", format)
	}
}

// DefaultSimHorizon is a sensible Monte-Carlo horizon for validation
// runs: long enough for tight confidence intervals on case-study-sized
// systems.
const DefaultSimHorizon = 10 * 365 * 24 * time.Hour
