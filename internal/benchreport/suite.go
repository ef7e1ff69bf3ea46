package benchreport

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uptimebroker/internal/jobstore"
	"uptimebroker/internal/optimize"
)

// Spec is one runnable scenario definition. Setup prepares the
// workload in a scratch directory and returns the per-iteration run
// function plus a cleanup; the harness times run only.
type Spec struct {
	Name    string
	Group   string
	Tracked bool
	Setup   func(scratch string) (run runFunc, cleanup func(), err error)

	// Extra, when non-nil, is sampled once after the measurement and
	// attached to the scenario (latency percentiles, hit rates). The
	// callback sees whatever state the last run left behind.
	Extra func() map[string]float64
}

// benchProblem builds the n-component instance shared by the eval
// and solver scenarios: optimize.BenchProblem at the canonical SLA,
// the exact shape the optimize package's solver benchmarks measure,
// so the committed BENCH_*.json trajectory and the in-repo benchmarks
// stay about the same workload by construction.
func benchProblem(n int) *optimize.Problem {
	return optimize.BenchProblem(n, optimize.BenchSLAPercent)
}

// evalSpec builds the incremental-vs-scratch engine scenario: the
// same full-space n=19 search, re-deriving every candidate through
// Problem.Evaluate (scratch — the reference oracle and PR 4's
// engine) or advancing the compiled evaluator (incremental). Both are
// single-threaded, so the derived eval_incremental_speedup_n19 ratio
// is a pure algorithmic win CI can floor on any host, 1-core runners
// included.
func evalSpec(incremental bool) Spec {
	mode := "scratch"
	if incremental {
		mode = "incremental"
	}
	return Spec{
		Name:  fmt.Sprintf("eval/%s/n=19", mode),
		Group: "eval",
		// The scratch reference is measured but untracked: it exists to
		// anchor the ratio, not to be optimized.
		Tracked: incremental,
		Setup: func(string) (runFunc, func(), error) {
			p := benchProblem(19)
			return func(iters int) error {
				for i := 0; i < iters; i++ {
					var err error
					if incremental {
						_, err = p.ExhaustiveContext(context.Background())
					} else {
						_, err = p.ExhaustiveScratch(context.Background())
					}
					if err != nil {
						return err
					}
				}
				return nil
			}, func() {}, nil
		},
	}
}

// solverSpec builds one effort-stats solver scenario on the SLA-dense
// n=19 instance.
func solverSpec(strategy string) Spec {
	return Spec{
		Name:    fmt.Sprintf("solver/%s/n=19", strategy),
		Group:   "solver",
		Tracked: true,
		Setup: func(string) (runFunc, func(), error) {
			p := benchProblem(19)
			return func(iters int) error {
				for i := 0; i < iters; i++ {
					if _, err := optimize.Solve(context.Background(), p, strategy); err != nil {
						return err
					}
				}
				return nil
			}, func() {}, nil
		},
	}
}

// frontierWideSpec is the frontier DP on the SLA-dense n=30 wide
// instance (2^30 candidates, 16x past the cap the enumerating
// strategies accept) under a 500ms wall budget. The measurement is the
// usual ns/op; the last run's certificate rides along in Extra, and
// the derived frontier_n30_gap quality ratio gates it in CI at 0 — the
// suite fails loudly if the DP stops answering this shape exactly
// within budget (a blown budget or state cap answers with a certified
// greedy incumbent, whose gap is positive), not just if it gets
// slower.
func frontierWideSpec() Spec {
	var last optimize.Result
	var lastNs int64
	return Spec{
		Name:    "solver/frontier/n=30",
		Group:   "solver",
		Tracked: true,
		Setup: func(string) (runFunc, func(), error) {
			p := optimize.BenchProblem(optimize.BenchWideN, optimize.BenchSLAWidePercent)
			cfg := optimize.SolverConfig{
				Strategy: optimize.StrategyFrontier,
				Budget:   optimize.Budget{Wall: 500 * time.Millisecond},
			}
			return func(iters int) error {
				for i := 0; i < iters; i++ {
					start := time.Now()
					res, err := optimize.SolveConfig(context.Background(), p, cfg)
					if err != nil {
						return err
					}
					lastNs = time.Since(start).Nanoseconds()
					last = res
				}
				return nil
			}, func() {}, nil
		},
		Extra: func() map[string]float64 {
			extra := map[string]float64{
				"bound_usd":      last.Bound.Dollars(),
				"time_to_gap_ms": float64(lastNs) / 1e6,
			}
			// An infinite gap (no lower bound proven) is left out rather
			// than serialized: JSON has no Inf, and a missing "gap" key
			// fails the -require floor with an unknown-ratio error, which
			// is the right kind of loud.
			if !math.IsInf(last.Gap, 1) {
				extra["gap"] = last.Gap
			}
			if last.BudgetExhausted {
				extra["budget_exhausted"] = 1
			}
			if last.Optimal {
				extra["optimal"] = 1
			}
			return extra
		},
	}
}

// appendSpec measures the job store's WAL append path, with or
// without per-append fsync (brokerd -fsync).
func appendSpec(fsync bool) Spec {
	mode := "nosync"
	var opts []jobstore.FileOption
	if fsync {
		mode = "fsync"
		opts = []jobstore.FileOption{jobstore.WithFsync()}
	}
	return Spec{
		Name:    "jobstore/append/" + mode,
		Group:   "jobstore",
		Tracked: true,
		Setup: func(scratch string) (runFunc, func(), error) {
			backend, err := jobstore.OpenFile(scratch, opts...)
			if err != nil {
				return nil, nil, err
			}
			payload := json.RawMessage(`{"sla_percent":98,"penalty_per_hour_usd":100}`)
			now := time.Unix(1_700_000_000, 0)
			seq := uint64(0)
			return func(iters int) error {
					for i := 0; i < iters; i++ {
						seq++
						ev := jobstore.Event{
							Type:    jobstore.EventSubmitted,
							Time:    now,
							ID:      fmt.Sprintf("job-%08d", seq),
							Seq:     seq,
							Kind:    "recommend",
							Payload: payload,
						}
						if err := backend.Append(ev); err != nil {
							return err
						}
					}
					return nil
				}, func() {
					_ = backend.Close()
				}, nil
		},
	}
}

// concurrentAppendSpec measures the WAL append path under 8
// concurrent appenders — the shape a busy brokerd sees. The
// interesting split is per-append fsync versus group commit: both
// give power-loss durability, but group commit coalesces the
// concurrent flushes, and the derived group_commit_speedup ratio is
// the throughput the -group-commit flag recovers.
func concurrentAppendSpec(group bool) Spec {
	mode := "fsync-concurrent"
	opts := []jobstore.FileOption{jobstore.WithFsync()}
	if group {
		mode = "group-commit"
		opts = []jobstore.FileOption{jobstore.WithGroupCommit()}
	}
	return Spec{
		Name:    "jobstore/append/" + mode,
		Group:   "jobstore",
		Tracked: true,
		Setup: func(scratch string) (runFunc, func(), error) {
			backend, err := jobstore.OpenFile(scratch, opts...)
			if err != nil {
				return nil, nil, err
			}
			payload := json.RawMessage(`{"sla_percent":98,"penalty_per_hour_usd":100}`)
			now := time.Unix(1_700_000_000, 0)
			var seq atomic.Uint64
			const writers = 8
			return func(iters int) error {
					var wg sync.WaitGroup
					errs := make([]error, writers)
					for w := 0; w < writers; w++ {
						count := iters / writers
						if w < iters%writers {
							count++
						}
						wg.Add(1)
						go func(w, count int) {
							defer wg.Done()
							for i := 0; i < count; i++ {
								n := seq.Add(1)
								ev := jobstore.Event{
									Type:    jobstore.EventSubmitted,
									Time:    now,
									ID:      fmt.Sprintf("job-%08d", n),
									Seq:     n,
									Kind:    "recommend",
									Payload: payload,
								}
								if err := backend.Append(ev); err != nil {
									errs[w] = err
									return
								}
							}
						}(w, count)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							return err
						}
					}
					return nil
				}, func() {
					_ = backend.Close()
				}, nil
		},
	}
}

// recoverySpec measures reopening a data directory whose WAL holds
// 1000 complete job lifecycles — the startup cost a broker restart
// pays before serving.
func recoverySpec() Spec {
	return Spec{
		Name:    "jobstore/recovery/1000jobs",
		Group:   "jobstore",
		Tracked: true,
		Setup: func(scratch string) (runFunc, func(), error) {
			backend, err := jobstore.OpenFile(scratch)
			if err != nil {
				return nil, nil, err
			}
			now := time.Unix(1_700_000_000, 0)
			result := json.RawMessage(`{"best_option":3}`)
			for i := 0; i < 1000; i++ {
				id := fmt.Sprintf("job-%08d", i+1)
				events := []jobstore.Event{
					{Type: jobstore.EventSubmitted, Time: now, ID: id, Seq: uint64(i + 1), Kind: "recommend"},
					{Type: jobstore.EventStarted, Time: now, ID: id},
					{Type: jobstore.EventProgress, Time: now, ID: id, Evaluated: 8, SpaceSize: 16},
					{Type: jobstore.EventFinished, Time: now, ID: id, State: jobstore.StateDone, Result: result},
				}
				for _, ev := range events {
					if err := backend.Append(ev); err != nil {
						_ = backend.Close()
						return nil, nil, err
					}
				}
			}
			if err := backend.Close(); err != nil {
				return nil, nil, err
			}
			return func(iters int) error {
				for i := 0; i < iters; i++ {
					reopened, err := jobstore.OpenFile(scratch)
					if err != nil {
						return err
					}
					snap, err := reopened.Load()
					if err != nil {
						return err
					}
					if len(snap.Jobs) != 1000 {
						return fmt.Errorf("recovered %d jobs, want 1000", len(snap.Jobs))
					}
					if err := reopened.Close(); err != nil {
						return err
					}
				}
				return nil
			}, func() {}, nil
		},
	}
}

// Suite is the named scenario set a report covers. Order is stable;
// comparisons join on scenario name, not position.
func Suite() []Spec {
	specs := []Spec{
		evalSpec(false), evalSpec(true),
		solverSpec(optimize.StrategyFrontier),
		frontierWideSpec(),
		appendSpec(false), appendSpec(true),
		concurrentAppendSpec(false), concurrentAppendSpec(true),
		recoverySpec(),
		cacheSpec("miss"), cacheSpec("hit"), cacheSpec("fold-hit"),
		concurrentV2Spec(),
		obsSpec(false), obsSpec(true),
	}
	return specs
}

// ratioSpecs are the derived comparisons computed over a run's
// scenarios. A ratio is emitted only when both scenarios ran.
var ratioSpecs = []Ratio{
	{Name: "eval_incremental_speedup_n19", Numerator: "eval/scratch/n=19", Denominator: "eval/incremental/n=19", HigherIsBetter: true},
	{Name: "fsync_cost_x", Numerator: "jobstore/append/fsync", Denominator: "jobstore/append/nosync", HigherIsBetter: false},
	{Name: "group_commit_speedup", Numerator: "jobstore/append/fsync-concurrent", Denominator: "jobstore/append/group-commit", HigherIsBetter: true},
	{Name: "cache_hit_speedup", Numerator: "cache/miss/n=19", Denominator: "cache/hit/n=19", HigherIsBetter: true},
	{Name: "fold_hit_speedup", Numerator: "cache/miss/n=19", Denominator: "cache/fold-hit/n=19", HigherIsBetter: true},
	{Name: "obs_overhead_headroom", Numerator: "obs/uninstrumented/n=16", Denominator: "obs/instrumented/n=16", HigherIsBetter: true},
}

// qualityRatios are derived quality (not speed) figures: each lifts
// one Extra key of one scenario into the ratio table so requirements
// can floor it — Extra itself is invisible to comparisons. They carry
// HigherIsBetter: false (a shrinking certified gap is improvement),
// so Compare never gates them; the -require ceiling does.
var qualityRatios = []struct {
	Name     string
	Scenario string
	Key      string
}{
	{Name: "frontier_n30_gap", Scenario: "solver/frontier/n=30", Key: "gap"},
}

// Options configures one suite run.
type Options struct {
	// Label names the run in the report (e.g. "pr4").
	Label string

	// BenchTime is the per-scenario measurement budget (default 1s).
	BenchTime time.Duration

	// Filter restricts the run to scenarios whose name it matches;
	// nil runs everything.
	Filter *regexp.Regexp

	// Log receives human-readable progress lines; nil discards them.
	Log func(format string, args ...any)
}

// Run executes the (optionally filtered) suite and assembles the
// report. Scenarios whose ratio counterpart was filtered out simply
// produce no ratio — nothing fails.
func Run(opts Options) (Report, error) {
	if opts.BenchTime <= 0 {
		opts.BenchTime = time.Second
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	report := Report{
		SchemaVersion: SchemaVersion,
		Label:         opts.Label,
		GoVersion:     runtime.Version(),
		BenchTime:     opts.BenchTime.String(),
		Host:          CurrentHost(),
	}

	for _, spec := range Suite() {
		if opts.Filter != nil && !opts.Filter.MatchString(spec.Name) {
			continue
		}
		scratch, err := os.MkdirTemp("", "benchreport-*")
		if err != nil {
			return Report{}, err
		}
		sc, err := runSpec(spec, scratch, opts.BenchTime)
		_ = os.RemoveAll(scratch)
		if err != nil {
			return Report{}, fmt.Errorf("benchreport: scenario %s: %w", spec.Name, err)
		}
		logf("%-32s %12d ns/op  %8d allocs/op  (%d iterations)",
			spec.Name, sc.NsPerOp, sc.AllocsPerOp, sc.Iterations)
		report.Scenarios = append(report.Scenarios, sc)
	}

	for _, rs := range ratioSpecs {
		num, okN := report.Scenario(rs.Numerator)
		den, okD := report.Scenario(rs.Denominator)
		if !okN || !okD || den.NsPerOp == 0 {
			continue
		}
		rs.Value = float64(num.NsPerOp) / float64(den.NsPerOp)
		logf("%-32s %12.2fx  (%s / %s)", rs.Name, rs.Value, rs.Numerator, rs.Denominator)
		report.Ratios = append(report.Ratios, rs)
	}

	for _, qs := range qualityRatios {
		sc, ok := report.Scenario(qs.Scenario)
		if !ok {
			continue
		}
		value, ok := sc.Extra[qs.Key]
		if !ok {
			continue
		}
		r := Ratio{Name: qs.Name, Numerator: qs.Scenario, Denominator: "extra:" + qs.Key, Value: value}
		logf("%-32s %12.4f   (%s %s)", r.Name, r.Value, qs.Scenario, qs.Key)
		report.Ratios = append(report.Ratios, r)
	}
	return report, nil
}

// runSpec prepares and measures one scenario.
func runSpec(spec Spec, scratch string, benchTime time.Duration) (Scenario, error) {
	run, cleanup, err := spec.Setup(scratch)
	if err != nil {
		return Scenario{}, err
	}
	defer cleanup()
	sc, err := measure(run, benchTime)
	if err != nil {
		return Scenario{}, err
	}
	sc.Name = spec.Name
	sc.Group = spec.Group
	sc.Tracked = spec.Tracked
	if spec.Extra != nil {
		sc.Extra = spec.Extra()
	}
	return sc, nil
}
