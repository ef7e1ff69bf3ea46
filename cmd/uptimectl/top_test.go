package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/obs"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
)

// ansi matches the escape sequences renderTop draws with.
var ansi = regexp.MustCompile(`\x1b\[[0-9;?]*[A-Za-z]`)

// frameLine renders one frame and returns its line starting with
// prefix, escapes stripped.
func frameLine(t *testing.T, snap obs.Snapshot, prev *obs.Snapshot, prefix string) string {
	t.Helper()
	var buf bytes.Buffer
	renderTop(&buf, "http://broker", snap, prev)
	for _, line := range strings.Split(ansi.ReplaceAllString(buf.String(), ""), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("frame has no %q line:\n%s", prefix, buf.String())
	return ""
}

// TestRenderTopFrame renders frames from snapshots of the registry a
// caching engine publishes on and pins the solver and cache lines to
// the engine's own accounting, so a line that reads a series nobody
// publishes shows a wrong number instead of passing as an idle 0.
func TestRenderTopFrame(t *testing.T) {
	cat := catalog.Default()
	params := broker.CatalogParams{Catalog: cat}
	reg := obs.NewRegistry()
	engine, err := broker.New(cat, params, broker.WithResultCache(reccache.New(reccache.Config{})), broker.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	idle := reg.Snapshot()

	// A miss, a hit and a budget-stopped run on the case study, then a
	// Pareto front over every catalog technology, which folds a second
	// architecture.
	ctx := context.Background()
	exact, err := engine.Recommend(ctx, broker.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recommend(ctx, broker.CaseStudy()); err != nil {
		t.Fatal(err)
	}
	req := broker.CaseStudy()
	req.Solver.Budget.MaxEvaluations = 1
	stopped, err := engine.Recommend(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	open := broker.CaseStudy()
	open.AsIs = nil
	open.AllowedTechs = nil
	if _, err := engine.Pareto(ctx, open); err != nil {
		t.Fatal(err)
	}
	busy := reg.Snapshot()
	busy.Time = idle.Time.Add(2 * time.Second)

	if !stopped.Search.BudgetExhausted || math.IsInf(stopped.Search.Gap, 1) || stopped.Search.Strategy != optimize.StrategyFrontier {
		t.Fatalf("budgeted run %+v, want a budget-stopped frontier run with a finite gap", stopped.Search)
	}
	evaluated := exact.Search.Evaluated + stopped.Search.Evaluated
	skipped := exact.Search.Skipped + stopped.Search.Skipped
	results, folds, ok := engine.CacheMetrics()
	if !ok || skipped == 0 || results.Hits != 1 || results.Entries == 0 || folds.Entries < 2 || folds.Bytes == 0 {
		t.Fatalf("traffic left %d skipped, results %+v, folds %+v; want every field the frame shows nonzero", skipped, results, folds)
	}
	lifetime := fmt.Sprintf("%.1f%%", 100*float64(results.Hits+results.Shared)/float64(results.Hits+results.Misses+results.Shared))
	gap := fmt.Sprintf("gap %.2f%% (1 budget-stopped)", 100*stopped.Search.Gap)
	cache := func(window string) string {
		return fmt.Sprintf("cache    %s hit rate (window %s)   %d hits  %d misses  %d shared   %d entries   %d folds (%sB)",
			lifetime, window, results.Hits, results.Misses, results.Shared, results.Entries, folds.Entries, humanRate(float64(folds.Bytes)))
	}

	plain := obs.NewRegistry()
	if _, err := broker.New(cat, params, broker.WithMetricsRegistry(plain)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		snap      obs.Snapshot
		prev      *obs.Snapshot
		solver    string
		cacheLine string
	}{
		{
			name:      "idle",
			snap:      idle,
			solver:    "solver   0.0 evals/s   0 total evaluations   0 skipped   0.0 runs/s",
			cacheLine: "cache    - hit rate (window -)   0 hits  0 misses  0 shared   0 entries   0 folds (0.0B)",
		},
		{
			name: "first frame",
			snap: busy,
			solver: fmt.Sprintf("solver   0.0 evals/s   %d total evaluations   %d skipped   0.0 runs/s   %s",
				evaluated, skipped, gap),
			cacheLine: cache("-"),
		},
		{
			name: "window",
			snap: busy,
			prev: &idle,
			solver: fmt.Sprintf("solver   %s evals/s   %d total evaluations   %d skipped   1.0 runs/s   %s",
				humanRate(float64(evaluated)/2), evaluated, skipped, gap),
			cacheLine: cache(lifetime),
		},
		{
			name:      "no cache",
			snap:      plain.Snapshot(),
			solver:    "solver   0.0 evals/s   0 total evaluations   0 skipped   0.0 runs/s",
			cacheLine: "cache    disabled",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := frameLine(t, tc.snap, tc.prev, "solver "); got != tc.solver {
				t.Errorf("solver line\n got %q\nwant %q", got, tc.solver)
			}
			if got := frameLine(t, tc.snap, tc.prev, "cache "); got != tc.cacheLine {
				t.Errorf("cache line\n got %q\nwant %q", got, tc.cacheLine)
			}
		})
	}
}
