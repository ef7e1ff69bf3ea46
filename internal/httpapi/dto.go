// Package httpapi exposes the brokerage as a small JSON-over-HTTP
// service — the "as-a-service" delivery the paper's title promises —
// plus a typed Go client. Monetary fields cross the wire as USD
// floats; they are converted to exact cost.Money at the boundary.
package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/jobs"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/topology"
)

// RecommendationRequest is the wire form of broker.Request.
type RecommendationRequest struct {
	// Base is the base cloud solution architecture.
	Base topology.System `json:"base"`

	// SLAPercent is the contractual uptime percentage, e.g. 98.
	SLAPercent float64 `json:"sla_percent"`

	// PenaltyPerHourUSD is the slippage penalty in dollars per hour.
	PenaltyPerHourUSD float64 `json:"penalty_per_hour_usd"`

	// AsIs optionally maps component names to incumbent HA tech IDs.
	AsIs map[string]string `json:"as_is,omitempty"`

	// AllowedTechs optionally restricts per-component HA choices.
	AllowedTechs map[string][]string `json:"allowed_techs,omitempty"`

	// Strategy optionally names the solver the search runs on —
	// "frontier", "exhaustive", "pruned" or "auto" (the default); the
	// retired names "branch-and-bound", "parallel-pruned", "beam", "lds"
	// and "bounded" still run frontier.
	//
	// Deprecated alias: Strategy is the flat spelling of
	// Solver.Strategy and remains fully supported — the server folds it
	// into the nested spec, so both spellings validate, solve and cache
	// identically. Naming different strategies in both places is
	// rejected.
	Strategy string `json:"strategy,omitempty"`

	// Solver is the nested solver specification: the strategy plus its
	// budget. Absent means "auto with no limits", exactly the empty
	// flat Strategy. Unknown fields inside the object are rejected
	// (problem code "invalid_solver") rather than silently ignored — a
	// mistyped budget knob must not turn a bounded run into an
	// unbounded one.
	Solver *SolverConfigDTO `json:"solver,omitempty"`
}

// ToBroker converts the wire request to the domain request.
func (r RecommendationRequest) ToBroker() broker.Request {
	req := broker.Request{
		Base: r.Base,
		SLA: cost.SLA{
			UptimePercent: r.SLAPercent,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(r.PenaltyPerHourUSD)},
		},
		AllowedTechs: r.AllowedTechs,
		Strategy:     r.Strategy,
	}
	if r.Solver != nil {
		req.Solver = r.Solver.ToOptimize()
	}
	if r.AsIs != nil {
		req.AsIs = broker.Plan(r.AsIs)
	}
	return req
}

// SolverConfigDTO is the wire form of optimize.SolverConfig: the
// nested "solver" member of a recommendation request. The zero value
// means "auto with no limits".
type SolverConfigDTO struct {
	// Strategy names the solver: "exhaustive", "pruned", "frontier",
	// or "auto"/"" to let the server pick. The retired names
	// "branch-and-bound", "parallel-pruned", "beam", "lds" and
	// "bounded" still run, as deprecated aliases of frontier.
	Strategy string `json:"strategy,omitempty"`

	// BudgetMS caps the search's wall-clock time in milliseconds.
	// Frontier stops at the deadline and answers with a certified
	// incumbent; exhaustive and pruned treat it as a hard deadline (the
	// request fails when it fires). Zero means unlimited.
	BudgetMS int64 `json:"budget_ms,omitempty"`

	// MaxEvaluations caps the evaluations the search performs. Only
	// frontier (and auto, which then resolves to it) accepts it;
	// exhaustive and pruned cannot honor a cap and reject the request.
	// Zero means unlimited.
	MaxEvaluations int64 `json:"max_evaluations,omitempty"`

	// BeamWidth, MaxDiscrepancies and Epsilon are the retired anytime
	// strategies' knobs. Deprecated: they are still accepted and
	// range-checked (non-negative; epsilon within [0, 1]) so old
	// clients keep working, then ignored — they change neither the
	// answer nor the cache address.
	BeamWidth        int     `json:"beam_width,omitempty"`
	MaxDiscrepancies int     `json:"max_discrepancies,omitempty"`
	Epsilon          float64 `json:"epsilon,omitempty"`
}

// SolverSpecError marks a request-body decode failure located inside
// the "solver" object, so the server can answer with the
// "invalid_solver" problem code instead of the generic body-parse one.
type SolverSpecError struct{ Err error }

// Error implements error.
func (e *SolverSpecError) Error() string { return "solver: " + e.Err.Error() }

// Unwrap exposes the underlying decode error.
func (e *SolverSpecError) Unwrap() error { return e.Err }

// UnmarshalJSON decodes the solver spec strictly: unknown fields are
// an error, not a silent drop, and so are out-of-range deprecated
// knobs. Every other wire type tolerates unknown fields for forward
// compatibility; here a typo ("beamwidth", "budget") would change
// solve semantics without any signal, so the object is the one place
// the API is strict.
func (d *SolverConfigDTO) UnmarshalJSON(data []byte) error {
	type plain SolverConfigDTO // drop methods to avoid recursing
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p plain
	if err := dec.Decode(&p); err != nil {
		return &SolverSpecError{Err: err}
	}
	switch {
	case p.BeamWidth < 0:
		return &SolverSpecError{Err: fmt.Errorf("negative beam_width %d", p.BeamWidth)}
	case p.MaxDiscrepancies < 0:
		return &SolverSpecError{Err: fmt.Errorf("negative max_discrepancies %d", p.MaxDiscrepancies)}
	case p.Epsilon < 0 || p.Epsilon > 1:
		return &SolverSpecError{Err: fmt.Errorf("epsilon %v outside [0, 1]", p.Epsilon)}
	}
	*d = SolverConfigDTO(p)
	return nil
}

// ToOptimize converts the wire spec to the domain spec; the deprecated
// knobs have no domain counterpart.
func (d SolverConfigDTO) ToOptimize() optimize.SolverConfig {
	return optimize.SolverConfig{
		Strategy: d.Strategy,
		Budget: optimize.Budget{
			Wall:           time.Duration(d.BudgetMS) * time.Millisecond,
			MaxEvaluations: d.MaxEvaluations,
		},
	}
}

// ChoiceDTO is one component's HA selection.
type ChoiceDTO struct {
	Component string `json:"component"`
	TechID    string `json:"tech_id,omitempty"`
}

// OptionCardDTO is the wire form of one solution option.
type OptionCardDTO struct {
	Option        int         `json:"option"`
	Label         string      `json:"label"`
	Choices       []ChoiceDTO `json:"choices"`
	HACostUSD     float64     `json:"ha_cost_usd"`
	UptimePercent float64     `json:"uptime_percent"`
	SlippageHours float64     `json:"slippage_hours_per_month"`
	PenaltyUSD    float64     `json:"penalty_usd"`
	TCOUSD        float64     `json:"tco_usd"`
	MeetsSLA      bool        `json:"meets_sla"`
}

// SearchStatsDTO is the wire form of the search-effort statistics.
// Strategy echoes the concrete solver that ran ("auto" requests and
// the retired aliases see what they resolved to).
type SearchStatsDTO struct {
	SpaceSize    int    `json:"space_size"`
	Evaluated    int    `json:"evaluated"`
	Skipped      int    `json:"skipped"`
	CoverLookups int    `json:"cover_lookups,omitempty"`
	Clipped      int    `json:"clipped,omitempty"`
	Strategy     string `json:"strategy,omitempty"`

	// Approximate marks a frontier run that a budget or its state cap
	// stopped early, answering with a certified incumbent. The
	// certificate members below are present exactly when it is true —
	// exact runs omit the whole group.
	Approximate bool `json:"approximate,omitempty"`

	// BoundUSD is the certified lower bound on any plan's monthly TCO:
	// no assignment, searched or not, can cost less.
	BoundUSD *float64 `json:"bound_usd,omitempty"`

	// Gap is the certified relative optimality gap,
	// (incumbent − bound) / bound. 0 means proven optimal. Omitted
	// when no positive lower bound was proven (the gap is unbounded).
	Gap *float64 `json:"gap,omitempty"`

	// Optimal reports whether the returned plan is proven optimal
	// (gap exactly zero).
	Optimal *bool `json:"optimal,omitempty"`

	// BudgetExhausted reports whether the run stopped on its
	// wall-clock or evaluation budget (rather than the state cap).
	BudgetExhausted *bool `json:"budget_exhausted,omitempty"`
}

// RecommendationResponse is the wire form of broker.Recommendation.
// Cards holds the distinct best, min-risk and as-is cards in option
// order; the v1 routes list every option there instead.
type RecommendationResponse struct {
	System         string          `json:"system"`
	Provider       string          `json:"provider"`
	SLAPercent     float64         `json:"sla_percent"`
	Cards          []OptionCardDTO `json:"cards"`
	BestOption     int             `json:"best_option"`
	MinRiskOption  int             `json:"min_risk_option,omitempty"`
	AsIsOption     int             `json:"as_is_option,omitempty"`
	SavingsPercent float64         `json:"savings_percent,omitempty"`
	Search         SearchStatsDTO  `json:"search"`

	// Cache reports how the server's result cache answered this
	// request — "hit", "miss" or "shared" — mirroring the X-Cache
	// response header. Empty when the server runs without a cache.
	Cache string `json:"cache,omitempty"`
}

// fromCard converts one option card to wire form.
func fromCard(c broker.OptionCard) OptionCardDTO {
	choices := make([]ChoiceDTO, len(c.Choices))
	for j, ch := range c.Choices {
		choices[j] = ChoiceDTO{Component: ch.Component, TechID: ch.TechID}
	}
	return OptionCardDTO{
		Option:        c.Option,
		Label:         c.Label(),
		Choices:       choices,
		HACostUSD:     c.HACost.Dollars(),
		UptimePercent: c.Uptime * 100,
		SlippageHours: c.SlippageHours,
		PenaltyUSD:    c.Penalty.Dollars(),
		TCOUSD:        c.TCO.Dollars(),
		MeetsSLA:      c.MeetsSLA,
	}
}

// fromCards converts option cards to wire form (never nil, so an
// empty list encodes as []).
func fromCards(cards []broker.OptionCard) []OptionCardDTO {
	out := make([]OptionCardDTO, len(cards))
	for i, c := range cards {
		out[i] = fromCard(c)
	}
	return out
}

// CardPageResponse is the body of POST /v2/recommendations/cards: one
// page of a request's option listing in presentation order.
type CardPageResponse struct {
	// Cards are the options numbered Offset+1 onward; fewer than the
	// page's limit only at the end of the space.
	Cards []OptionCardDTO `json:"cards"`

	// Offset echoes the page's 0-based start.
	Offset int `json:"offset"`

	// SpaceSize is k^n, the listing's full length.
	SpaceSize int `json:"space_size"`
}

// FromRecommendation converts a domain recommendation to wire form.
func FromRecommendation(rec *broker.Recommendation) RecommendationResponse {
	return RecommendationResponse{
		System:         rec.System,
		Provider:       rec.Provider,
		SLAPercent:     rec.SLA.UptimePercent,
		Cards:          fromCards(rec.Cards),
		BestOption:     rec.BestOption,
		MinRiskOption:  rec.MinRiskOption,
		AsIsOption:     rec.AsIsOption,
		SavingsPercent: rec.SavingsFraction * 100,
		Search:         fromSearchStats(rec.Search),
	}
}

// fromSearchStats converts search statistics to wire form, attaching
// the anytime certificate only when the run was approximate.
func fromSearchStats(s broker.SearchStats) SearchStatsDTO {
	dto := SearchStatsDTO{
		SpaceSize:    s.SpaceSize,
		Evaluated:    s.Evaluated,
		Skipped:      s.Skipped,
		CoverLookups: s.CoverLookups,
		Clipped:      s.Clipped,
		Strategy:     s.Strategy,
	}
	if !s.Approximate {
		return dto
	}
	dto.Approximate = true
	bound := s.Bound.Dollars()
	dto.BoundUSD = &bound
	if !math.IsInf(s.Gap, 1) {
		gap := s.Gap
		dto.Gap = &gap
	}
	optimal := s.Optimal
	dto.Optimal = &optimal
	exhausted := s.BudgetExhausted
	dto.BudgetExhausted = &exhausted
	return dto
}

// TechnologyDTO is the wire form of a catalog technology.
type TechnologyDTO struct {
	ID                 string  `json:"id"`
	Name               string  `json:"name"`
	Layer              string  `json:"layer"`
	StandbyNodes       int     `json:"standby_nodes"`
	Mode               string  `json:"mode"`
	FailoverSeconds    float64 `json:"failover_seconds"`
	InfraFixedUSD      float64 `json:"infra_fixed_usd"`
	InfraPerStandbyUSD float64 `json:"infra_per_standby_usd"`
	LaborHoursPerMonth float64 `json:"labor_hours_per_month"`
}

// FromTechnology converts a catalog technology to wire form.
func FromTechnology(t catalog.HATechnology) TechnologyDTO {
	return TechnologyDTO{
		ID:                 t.ID,
		Name:               t.Name,
		Layer:              t.Layer.String(),
		StandbyNodes:       t.StandbyNodes,
		Mode:               t.Mode.String(),
		FailoverSeconds:    t.Failover.Seconds(),
		InfraFixedUSD:      t.InfraFixed.Dollars(),
		InfraPerStandbyUSD: t.InfraPerStandby.Dollars(),
		LaborHoursPerMonth: t.LaborHoursPerMonth,
	}
}

// ProviderDTO is the wire form of a catalog provider.
type ProviderDTO struct {
	Name            string  `json:"name"`
	DisplayName     string  `json:"display_name"`
	LaborRateUSD    float64 `json:"labor_rate_usd"`
	InfraMultiplier float64 `json:"infra_multiplier"`
}

// FromProvider converts a catalog provider to wire form.
func FromProvider(p catalog.Provider) ProviderDTO {
	return ProviderDTO{
		Name:            p.Name,
		DisplayName:     p.DisplayName,
		LaborRateUSD:    p.RateCard.LaborRate.Dollars(),
		InfraMultiplier: p.RateCard.InfraMultiplier,
	}
}

// Observation kinds accepted by POST /v1/observations.
const (
	ObservationOutage   = "outage"
	ObservationFailover = "failover"
	ObservationExposure = "exposure"
)

// Observation is one telemetry sample.
type Observation struct {
	// Provider and Class identify the telemetry bucket.
	Provider string `json:"provider"`
	Class    string `json:"class"`

	// Kind is one of outage, failover or exposure.
	Kind string `json:"kind"`

	// Seconds is the observation magnitude: outage duration, failover
	// window, or node-time of exposure.
	Seconds float64 `json:"seconds"`
}

// Validate reports whether the observation is well-formed.
func (o Observation) Validate() error {
	if o.Provider == "" || o.Class == "" {
		return fmt.Errorf("httpapi: observation needs provider and class")
	}
	switch o.Kind {
	case ObservationOutage, ObservationFailover, ObservationExposure:
	default:
		return fmt.Errorf("httpapi: unknown observation kind %q", o.Kind)
	}
	if o.Seconds < 0 {
		return fmt.Errorf("httpapi: negative observation")
	}
	return nil
}

// Duration returns the observation magnitude as a time.Duration.
func (o Observation) Duration() time.Duration {
	return time.Duration(o.Seconds * float64(time.Second))
}

// ParamsResponse reports the parameter estimate the broker would use
// for one (provider, class).
type ParamsResponse struct {
	Provider           string  `json:"provider"`
	Class              string  `json:"class"`
	Down               float64 `json:"down"`
	FailuresPerYear    float64 `json:"failures_per_year"`
	FailoverSeconds    float64 `json:"failover_seconds,omitempty"`
	FailoverP95Seconds float64 `json:"failover_p95_seconds,omitempty"`
	ExposureYears      float64 `json:"exposure_years,omitempty"`
	Source             string  `json:"source"`
}

// CacheMetricsDTO is the wire form of the result cache's counters,
// reccache.Metrics plus the derived hit rate.
type CacheMetricsDTO struct {
	// Hits, Misses and Shared classify every cached engine call:
	// answered from a completed entry, computed fresh, or collapsed
	// onto another caller's in-flight computation.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Shared int64 `json:"shared"`

	// Evictions and Expired count entries dropped for capacity and
	// for age, respectively.
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`

	// Inflight is the number of computations running right now.
	Inflight int64 `json:"inflight"`

	// Entries and Bytes are the current occupancy (Bytes is the sum
	// of the engine's per-result size estimates).
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`

	// HitRate is the fraction of calls that avoided a solver run.
	HitRate float64 `json:"hit_rate"`
}

// fromCacheMetrics converts the cache counters to wire form.
func fromCacheMetrics(m reccache.Metrics) CacheMetricsDTO {
	return CacheMetricsDTO{
		Hits:      m.Hits,
		Misses:    m.Misses,
		Shared:    m.Shared,
		Evictions: m.Evictions,
		Expired:   m.Expired,
		Inflight:  m.Inflight,
		Entries:   m.Entries,
		Bytes:     m.Bytes,
		HitRate:   m.HitRate(),
	}
}

// MetricsResponse is the body of GET /v1/metrics (and /v2/metrics):
// the server's operational counters in one document.
type MetricsResponse struct {
	// Jobs are the async job subsystem's counters.
	Jobs jobs.Metrics `json:"jobs"`

	// Cache reports the result cache; absent when the engine runs
	// without one.
	Cache *CacheMetricsDTO `json:"cache,omitempty"`

	// CatalogEpoch is the catalog's current mutation counter — the
	// epoch stamped into every cache key, so a bump here explains a
	// burst of cache misses.
	CatalogEpoch uint64 `json:"catalog_epoch"`

	// ParamsEpoch is the parameter source's mutation counter when the
	// source exposes one (telemetry-backed engines do); absent
	// otherwise.
	ParamsEpoch *uint64 `json:"params_epoch,omitempty"`

	// RateLimiter reports the per-client limiter's occupancy; absent
	// when per-client limiting is off.
	RateLimiter *RateLimiterMetricsDTO `json:"rate_limiter,omitempty"`

	// Build identifies the running binary.
	Build *BuildInfoDTO `json:"build,omitempty"`
}

// RateLimiterMetricsDTO is the per-client rate limiter's occupancy.
type RateLimiterMetricsDTO struct {
	// ClientBuckets is the number of live per-client token buckets —
	// roughly the distinct clients seen within the idle TTL.
	ClientBuckets int `json:"client_buckets"`
}

// BuildInfoDTO is the wire form of the binary's identity.
type BuildInfoDTO struct {
	// Version is the main module version ("(devel)" for local builds).
	Version string `json:"version"`

	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`

	// StartedAt is when the process started; UptimeSeconds is the age
	// at response time.
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// ScenarioDTO summarizes one built-in scenario.
type ScenarioDTO struct {
	Name              string  `json:"name"`
	Description       string  `json:"description"`
	Provider          string  `json:"provider"`
	Components        int     `json:"components"`
	SLAPercent        float64 `json:"sla_percent"`
	PenaltyPerHourUSD float64 `json:"penalty_per_hour_usd"`
}
