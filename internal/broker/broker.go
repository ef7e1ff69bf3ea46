// Package broker implements the uptime-aware brokerage service of the
// paper's Section II.C (Figure 2): given a base cloud solution
// architecture, an uptime SLA with its slippage penalty, and the
// broker's cross-cloud knowledge (catalog rate cards plus telemetry
// parameter estimates), it models every HA-enabled permutation of the
// base architecture, searches their monthly TCO per Equation 5, and
// recommends the minimum-TCO topology per Equation 6. Any permutation's
// option card — the content of the paper's Figures 3–9 — is priced on
// demand.
package broker

import (
	"fmt"
	"sync"
	"sync/atomic"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
	"uptimebroker/internal/topology"
)

// ParamSource resolves node reliability parameters for a (provider,
// component class) pair — the P_i and f_i of the model.
type ParamSource interface {
	NodeParams(provider, class string) (availability.NodeParams, error)
}

// EpochSource is the optional second face of a ParamSource: a
// mutation epoch that changes whenever the source could answer
// NodeParams differently. The engine's result-cache keys embed it, so
// fresh telemetry invalidates every cached recommendation that might
// have used it. Sources that cannot change need not implement it.
type EpochSource interface {
	Epoch() uint64
}

// CatalogParams is a ParamSource backed by the catalog's long-term
// provider defaults.
type CatalogParams struct {
	Catalog *catalog.Catalog
}

// NodeParams implements ParamSource.
func (c CatalogParams) NodeParams(provider, class string) (availability.NodeParams, error) {
	return c.Catalog.DefaultNodeParams(provider, class)
}

// Epoch implements EpochSource: catalog defaults move only when the
// catalog does.
func (c CatalogParams) Epoch() uint64 { return c.Catalog.Epoch() }

// TelemetryParams is a ParamSource that prefers fresh telemetry
// estimates and falls back to another source (typically the catalog)
// when a bucket has insufficient observation behind it.
type TelemetryParams struct {
	// Store supplies the live estimates.
	Store *telemetry.Store

	// Fallback answers when the store has no usable estimate.
	Fallback ParamSource

	// MinExposureYears is the minimum node-years of observation an
	// estimate needs before it overrides the fallback.
	MinExposureYears float64
}

// NodeParams implements ParamSource.
func (t TelemetryParams) NodeParams(provider, class string) (availability.NodeParams, error) {
	if t.Store != nil {
		if params, err := t.Store.Estimate(provider, class); err == nil && params.ExposureYears >= t.MinExposureYears {
			return params.Node, nil
		}
	}
	if t.Fallback == nil {
		return availability.NodeParams{}, fmt.Errorf("broker: no telemetry and no fallback for %s/%s", provider, class)
	}
	return t.Fallback.NodeParams(provider, class)
}

// Epoch implements EpochSource by folding the store's observation
// epoch with the fallback's (when it has one): an estimate can move
// because new telemetry arrived or because the fallback changed.
func (t TelemetryParams) Epoch() uint64 {
	var e uint64
	if t.Store != nil {
		e = t.Store.Epoch()
	}
	if es, ok := t.Fallback.(EpochSource); ok {
		// Shift keeps the two counters from cancelling each other out.
		e = e*1_000_003 + es.Epoch()
	}
	return e
}

// Plan maps component names to HA technology IDs; a missing or empty
// entry means no HA for that component. It describes either an
// incumbent ("as-is") deployment or a recommended one.
type Plan map[string]string

// Request is what a customer (or the provider acting for one) submits
// to the brokerage: the inputs enumerated in Section II.C.
type Request struct {
	// Base is the base cloud solution architecture.
	Base topology.System

	// SLA is the contractual uptime target and slippage penalty.
	SLA cost.SLA

	// AsIs optionally describes the incumbent ad-hoc HA strategy; when
	// present the recommendation reports the savings against it (the
	// paper's Figure 10 comparison).
	AsIs Plan

	// AllowedTechs optionally restricts the HA choices per component to
	// the named technology IDs; nil means every catalog technology for
	// the component's layer is in play. The case study restricts each
	// layer to its single classic mechanism, giving k = 2.
	AllowedTechs map[string][]string

	// Strategy names the optimize solver the search runs on, one of
	// optimize.Strategies(). Empty falls back to the engine's default,
	// then to "auto".
	//
	// Deprecated alias: Strategy is the flat spelling of Solver.Strategy
	// and remains fully supported — normalize folds it into the nested
	// Solver spec, so the two spellings compile identically and share
	// one cache address. Setting both to different names is a
	// contradiction Validate rejects.
	Strategy string

	// Solver is the nested solver specification: the strategy plus its
	// budget. The zero value means "auto with no limits", exactly the
	// empty flat Strategy. Exhaustive and pruned reject an evaluation
	// cap and turn a wall budget into a deadline; frontier honors both
	// budget kinds and, when one fires, certifies the optimality gap of
	// its incumbent in SearchStats.
	Solver optimize.SolverConfig
}

// Validate reports whether the request is well-formed (catalog
// consistency is checked during compilation).
func (r Request) Validate() error {
	if err := r.Base.Validate(); err != nil {
		return fmt.Errorf("broker: %w", err)
	}
	if err := r.SLA.Validate(); err != nil {
		return fmt.Errorf("broker: %w", err)
	}
	for name := range r.AsIs {
		if _, ok := r.Base.Component(name); !ok {
			return fmt.Errorf("broker: as-is plan names unknown component %q", name)
		}
	}
	for name := range r.AllowedTechs {
		if _, ok := r.Base.Component(name); !ok {
			return fmt.Errorf("broker: allowed-techs names unknown component %q", name)
		}
	}
	if !optimize.ValidStrategy(r.Strategy) {
		return fmt.Errorf("broker: unknown strategy %q (choose from %v, or leave empty for auto)",
			r.Strategy, optimize.Strategies())
	}
	if r.Strategy != "" && r.Solver.Strategy != "" && r.Strategy != r.Solver.Strategy {
		return fmt.Errorf("broker: strategy %q contradicts solver.strategy %q (set one, or make them agree)",
			r.Strategy, r.Solver.Strategy)
	}
	if err := r.Solver.Validate(); err != nil {
		return fmt.Errorf("broker: %w", err)
	}
	return nil
}

// Engine is the brokerage service core.
type Engine struct {
	catalog         *catalog.Catalog
	params          ParamSource
	defaultStrategy string
	cache           *reccache.Cache

	// folds is the result cache's partition of presentation-order
	// frontier folds (nil without a cache): see withFolds.
	folds *reccache.Partition

	// metrics is the engine's registry attachment (nil when
	// uninstrumented); metricsOnce serializes InstrumentMetrics and
	// pendingMetrics carries WithMetricsRegistry's argument to the end
	// of New so it composes with WithResultCache in any order.
	metrics        atomic.Pointer[engineMetrics]
	metricsOnce    sync.Mutex
	pendingMetrics *obs.Registry
}

// EngineOption customizes New.
type EngineOption func(*Engine)

// WithDefaultStrategy sets the solver strategy used for requests that
// do not name one (the built-in default is "auto"). The strategy must
// be registered with the optimize package; New rejects unknown names.
func WithDefaultStrategy(strategy string) EngineOption {
	return func(e *Engine) { e.defaultStrategy = strategy }
}

// WithResultCache attaches a content-addressed result cache:
// Recommend answers repeated identical requests from it in O(1) and
// collapses concurrent identical requests into one search. Keys embed
// the catalog epoch (and the parameter source's epoch, when it exposes
// one), so catalog mutations and fresh telemetry invalidate every
// dependent entry automatically. Cached results are shared across
// callers and must be treated as read-only.
//
// The same cache, in a partition of its own, holds the frontier folds
// behind those results, keyed by what the fold reads rather than by
// epoch: a request that misses the result cache but compiles to an
// architecture already folded only prices the fold under its term —
// all a Pareto call ever does, since Pareto stores no answer.
func WithResultCache(c *reccache.Cache) EngineOption {
	return func(e *Engine) { e.cache = c }
}

// New builds an engine over a catalog and a parameter source.
func New(cat *catalog.Catalog, params ParamSource, opts ...EngineOption) (*Engine, error) {
	if cat == nil {
		return nil, fmt.Errorf("broker: nil catalog")
	}
	if params == nil {
		return nil, fmt.Errorf("broker: nil parameter source")
	}
	e := &Engine{catalog: cat, params: params}
	for _, opt := range opts {
		opt(e)
	}
	if !optimize.ValidStrategy(e.defaultStrategy) {
		return nil, fmt.Errorf("broker: unknown default strategy %q (choose from %v)",
			e.defaultStrategy, optimize.Strategies())
	}
	if e.cache != nil {
		e.folds = e.cache.Partition()
	}
	e.InstrumentMetrics(e.pendingMetrics)
	return e, nil
}

// Catalog exposes the engine's catalog for read-only use by the HTTP
// layer.
func (e *Engine) Catalog() *catalog.Catalog { return e.catalog }

// CacheMetrics returns a snapshot of the result cache's counters; ok
// is false when no cache is attached.
func (e *Engine) CacheMetrics() (m reccache.Metrics, ok bool) {
	if e.cache == nil {
		return reccache.Metrics{}, false
	}
	return e.cache.Metrics(), true
}

// ParamsEpoch returns the parameter source's mutation epoch; ok is
// false when the source does not expose one (its estimates are then
// assumed immutable for the engine's lifetime, as CatalogParams' are
// modulo the catalog epoch already in every cache key).
func (e *Engine) ParamsEpoch() (epoch uint64, ok bool) {
	es, ok := e.params.(EpochSource)
	if !ok {
		return 0, false
	}
	return es.Epoch(), true
}
