package broker

import (
	"math"
	"sync"

	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
)

// engineMetrics is the engine's attachment to a metrics registry:
// the cross-strategy evaluation counter plus lazily created
// per-strategy solver series. Observation happens once per completed
// recommendation run — bulk adds, never per candidate — so the
// zero-allocation evaluation hot path is untouched.
type engineMetrics struct {
	reg         *obs.Registry
	evaluations *obs.Counter

	mu      sync.Mutex
	solvers map[string]*solverMetrics
}

// solverMetrics is one strategy's run/throughput series. The gap gauge
// and budget counter exist only for frontier, the one strategy that
// can stop early and certify an incumbent — a permanent 0% gap series
// for "exhaustive" would read as a claim it never makes.
type solverMetrics struct {
	runs            *obs.Counter
	evaluated       *obs.Counter
	skipped         *obs.Counter
	seconds         *obs.Histogram
	gap             *obs.Gauge
	budgetExhausted *obs.Counter
}

// solverFor returns the strategy's series, creating them on first use.
// The map caches registry lookups so a run costs one mutex hit, not a
// label-key render.
func (m *engineMetrics) solverFor(strategy string) *solverMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.solvers[strategy]; ok {
		return s
	}
	l := obs.L("strategy", strategy)
	s := &solverMetrics{
		runs:      m.reg.Counter("solver_runs_total", "Completed solver runs per strategy.", l),
		evaluated: m.reg.Counter("solver_evaluated_total", "Candidates the solver priced, per strategy.", l),
		skipped:   m.reg.Counter("solver_skipped_total", "Candidates resolved without pricing, per strategy.", l),
		seconds:   m.reg.Histogram("solver_run_seconds", "End-to-end recommendation search time per strategy.", obs.ExponentialBuckets(0.0001, 4, 12), l),
	}
	if strategy == optimize.StrategyFrontier {
		s.gap = m.reg.Gauge("solver_gap", "Certified relative optimality gap of the last run, per strategy (0 = proven optimal).", l)
		s.budgetExhausted = m.reg.Counter("solver_budget_exhausted_total", "Runs stopped by their wall-clock or evaluation budget, per strategy.", l)
	}
	m.solvers[strategy] = s
	return s
}

// observeRun records one completed recommendation: the strategy's
// search statistics (evaluated and skipped candidates) and the run's
// wall time. One bulk add per run — the per-candidate hot loop stays
// uninstrumented. Frontier runs additionally publish their gap — 0
// when exact, the certified gap when stopped early (skipped when
// infinite: a gauge cannot render "no bound proven") — and count
// budget-stopped runs.
func (m *engineMetrics) observeRun(stats SearchStats, seconds float64) {
	evaluated := int64(stats.Evaluated)
	m.evaluations.Add(evaluated)
	s := m.solverFor(stats.Strategy)
	s.runs.Inc()
	s.evaluated.Add(evaluated)
	s.skipped.Add(int64(stats.Skipped))
	s.seconds.Observe(seconds)
	if s.gap != nil {
		if !math.IsInf(stats.Gap, 1) {
			s.gap.Set(stats.Gap)
		}
		if stats.BudgetExhausted {
			s.budgetExhausted.Inc()
		}
	}
}

// InstrumentMetrics attaches the engine to a metrics registry,
// publishing the result cache's counters and occupancy, its fold
// lookups by disposition and fold occupancy, the catalog and
// parameter epochs, and the solver throughput series. It is
// idempotent: the first registry wins and later calls are no-ops, so
// the HTTP layer can instrument an engine without knowing whether its
// constructor already did.
func (e *Engine) InstrumentMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.metricsOnce.Lock()
	defer e.metricsOnce.Unlock()
	if e.metrics.Load() != nil {
		return
	}

	m := &engineMetrics{
		reg: reg,
		evaluations: reg.Counter("broker_evaluations_total",
			"Candidate permutations priced across all recommendation runs."),
		solvers: make(map[string]*solverMetrics),
	}

	reg.GaugeFunc("catalog_epoch", "Catalog mutation epoch.",
		func() float64 { return float64(e.catalog.Epoch()) })
	if _, ok := e.ParamsEpoch(); ok {
		reg.GaugeFunc("params_epoch", "Parameter source mutation epoch.",
			func() float64 {
				epoch, _ := e.ParamsEpoch()
				return float64(epoch)
			})
	}

	if e.cache != nil {
		cacheCounters := []struct {
			name, help string
			get        func(reccache.Metrics) int64
		}{
			{"reccache_hits_total", "Requests answered from a completed cache entry.", func(m reccache.Metrics) int64 { return m.Hits }},
			{"reccache_misses_total", "Requests that ran the search as flight leader.", func(m reccache.Metrics) int64 { return m.Misses }},
			{"reccache_shared_total", "Requests that joined an in-flight search.", func(m reccache.Metrics) int64 { return m.Shared }},
			{"reccache_evictions_total", "Entries dropped to respect capacity limits.", func(m reccache.Metrics) int64 { return m.Evictions }},
			{"reccache_expired_total", "Entries dropped on TTL expiry.", func(m reccache.Metrics) int64 { return m.Expired }},
		}
		for _, c := range cacheCounters {
			get := c.get
			reg.CounterFunc(c.name, c.help, func() float64 { return float64(get(e.cache.Metrics())) })
		}
		reg.GaugeFunc("reccache_inflight", "Searches currently running under the cache.",
			func() float64 { return float64(e.cache.Metrics().Inflight) })
		reg.GaugeFunc("reccache_entries", "Cached results currently held.",
			func() float64 { return float64(e.cache.Metrics().Entries) })
		reg.GaugeFunc("reccache_bytes", "Approximate bytes of cached results held.",
			func() float64 { return float64(e.cache.Metrics().Bytes) })
		reg.GaugeFunc("reccache_fold_entries", "Frontier folds currently held; they share the cache's entry cap.",
			func() float64 { return float64(e.folds.Metrics().Entries) })
		reg.GaugeFunc("reccache_fold_bytes", "Approximate bytes of frontier folds held; they share the cache's byte budget.",
			func() float64 { return float64(e.folds.Metrics().Bytes) })
		foldCounters := []struct {
			status reccache.Status
			get    func(reccache.Metrics) int64
		}{
			{reccache.StatusHit, func(m reccache.Metrics) int64 { return m.Hits }},
			{reccache.StatusMiss, func(m reccache.Metrics) int64 { return m.Misses }},
			{reccache.StatusShared, func(m reccache.Metrics) int64 { return m.Shared }},
		}
		for _, c := range foldCounters {
			get := c.get
			reg.CounterFunc("reccache_fold_lookups_total", "Frontier fold lookups: hits priced a cached fold, misses folded, shared joined a fold in flight.",
				func() float64 { return float64(get(e.folds.Metrics())) }, obs.L("status", string(c.status)))
		}
	}

	e.metrics.Store(m)
}

// MetricsRegistry returns the registry the engine publishes on, or nil
// when uninstrumented — the HTTP layer shares it rather than creating
// a second one.
func (e *Engine) MetricsRegistry() *obs.Registry {
	if m := e.metrics.Load(); m != nil {
		return m.reg
	}
	return nil
}

// WithMetricsRegistry instruments the engine on reg (see
// InstrumentMetrics). Applied at the end of New so it composes with
// WithResultCache regardless of option order.
func WithMetricsRegistry(reg *obs.Registry) EngineOption {
	return func(e *Engine) { e.pendingMetrics = reg }
}
