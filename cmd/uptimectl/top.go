package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/obs"
)

// cmdTop is the live terminal dashboard: it consumes the server's
// /v2/metrics/events snapshot stream and redraws in place with plain
// ANSI escapes — no TUI dependency. Rates and percentiles are
// computed client-side from consecutive snapshot deltas, so the
// display shows the current window, not process-lifetime averages.
func cmdTop(ctx context.Context, client *httpapi.Client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh cadence")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Hide the cursor and clear once; every frame then homes and
	// overdraws, which is flicker-free on any VT100-compatible
	// terminal. The cursor comes back on any exit path.
	fmt.Print("\x1b[?25l\x1b[2J")
	defer fmt.Print("\x1b[?25h")

	server := client.BaseURL()
	var prev *obs.Snapshot
	err := client.WatchMetrics(ctx, *interval, func(snap obs.Snapshot) {
		renderTop(os.Stdout, server, snap, prev)
		keep := snap
		prev = &keep
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Println()
		return nil
	}
	return err
}

// renderTop draws one dashboard frame. prev is the previous snapshot
// (nil on the first frame), the source of all windowed rates.
func renderTop(w *os.File, server string, snap obs.Snapshot, prev *obs.Snapshot) {
	var b strings.Builder
	b.WriteString("\x1b[H") // home
	line := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteString("\x1b[K\n") // clear to end of line
	}

	dt := 0.0
	if prev != nil {
		dt = snap.Time.Sub(prev.Time).Seconds()
	}
	rate := func(name string) float64 {
		if prev == nil || dt <= 0 {
			return 0
		}
		d := snap.Value(name) - prev.Value(name)
		if d < 0 {
			d = snap.Value(name) // counter reset
		}
		return d / dt
	}

	uptime := "-"
	if start := snap.Value("process_start_time_seconds"); start > 0 {
		age := float64(time.Now().UnixNano())/1e9 - start
		uptime = time.Duration(age * float64(time.Second)).Round(time.Second).String()
	}
	line("uptimebroker top — %s   up %s   %s", server, uptime, snap.Time.Format("15:04:05"))
	if snap.Value("store_degraded") > 0 {
		// Inverse video so the fail-stop latch is impossible to miss.
		line("\x1b[7m DEGRADED \x1b[0m  job store latched read-only after a storage failure — submissions refused, reads still serving")
	}
	line("")

	line("jobs     %3.0f running  %3.0f queued   %.1f done/s   %.0f submitted  %.0f done  %.0f failed",
		snap.Value("jobs_running"), snap.Value("jobs_queue_depth"), rate("jobs_done_total"),
		snap.Value("jobs_submitted_total"), snap.Value("jobs_done_total"), snap.Value("jobs_failed_total"))

	solver := fmt.Sprintf("solver   %s evals/s   %s lookups/s   %.0f total evaluations   %.0f clipped   %.1f runs/s",
		humanRate(rate("broker_evaluations_total")), humanRate(rate("solver_cover_lookups_total")),
		snap.Value("broker_evaluations_total"), snap.Value("solver_clipped_total"), rate("solver_runs_total"))
	if gap, ok := worstSolverGap(snap); ok {
		solver += fmt.Sprintf("   gap %.2f%%", 100*gap)
		if exhausted := snap.Value("solver_budget_exhausted_total"); exhausted > 0 {
			solver += fmt.Sprintf(" (%.0f budget-stopped)", exhausted)
		}
	}
	line("%s", solver)

	hits, misses, shared := snap.Value("reccache_hits_total"), snap.Value("reccache_misses_total"), snap.Value("reccache_shared_total")
	if total := hits + misses + shared; total > 0 {
		wr := windowedHitRate(snap, prev)
		line("cache    %.1f%% hit rate (window %s)   %.0f hits  %.0f misses  %.0f shared   %.0f entries",
			100*(hits+shared)/total, wr, hits, misses, shared, snap.Value("reccache_entries"))
	} else {
		line("cache    (no traffic or disabled)")
	}

	p50, p99 := windowQuantiles(snap, prev, "http_request_seconds")
	line("http     %.1f req/s   %.0f in flight   p50 %s   p99 %s",
		rate("http_requests_total"), snap.Value("http_inflight_requests"), ms(p50), ms(p99))

	f50, f99 := windowQuantiles(snap, prev, "jobstore_wal_fsync_seconds")
	if !math.IsNaN(f50) || snap.Value("jobstore_wal_fsync_seconds") > 0 {
		line("wal      fsync p50 %s   p99 %s   %.1f appends/s", ms(f50), ms(f99), appendRate(snap, prev, dt))
	} else {
		line("wal      (in-memory job store)")
	}
	line("")

	// Route table: busiest first, capped so the frame stays small.
	if fam, ok := snap.Family("http_requests_total"); ok && len(fam.Series) > 0 {
		type row struct {
			route string
			count float64
		}
		rows := make([]row, 0, len(fam.Series))
		for _, s := range fam.Series {
			rows = append(rows, row{route: s.Labels["route"], count: s.Value})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].count != rows[j].count {
				return rows[i].count > rows[j].count
			}
			return rows[i].route < rows[j].route
		})
		if len(rows) > 8 {
			rows = rows[:8]
		}
		line("%-36s %10s", "route", "requests")
		for _, r := range rows {
			line("%-36s %10.0f", r.route, r.count)
		}
	}
	line("")
	line("ctrl-c to quit")
	b.WriteString("\x1b[J") // clear anything below the frame
	fmt.Fprint(w, b.String())
}

// windowQuantiles computes p50/p99 of a histogram family over the
// window between prev and snap (whole history on the first frame).
func windowQuantiles(snap obs.Snapshot, prev *obs.Snapshot, family string) (p50, p99 float64) {
	fam, ok := snap.Family(family)
	if !ok {
		return math.NaN(), math.NaN()
	}
	cur := fam.Merged()
	win := cur
	if prev != nil {
		if pf, ok := prev.Family(family); ok {
			win = obs.Delta(cur, pf.Merged())
		}
	}
	if win.Count == 0 {
		// A quiet window falls back to the lifetime distribution, so
		// the display degrades to averages instead of blanking.
		win = cur
	}
	return obs.Quantile(0.5, win), obs.Quantile(0.99, win)
}

// worstSolverGap reads the solver_gap gauge family — one series per
// certifying strategy that has run — and reports the largest last
// gap. Max across series, never a sum: gauges are levels,
// and the operator cares about the worst certificate on display.
func worstSolverGap(snap obs.Snapshot) (gap float64, ok bool) {
	fam, found := snap.Family("solver_gap")
	if !found || len(fam.Series) == 0 {
		return 0, false
	}
	for _, s := range fam.Series {
		if s.Value > gap {
			gap = s.Value
		}
	}
	return gap, true
}

// windowedHitRate renders the cache hit rate across the last window,
// or "-" when the window saw no lookups.
func windowedHitRate(snap obs.Snapshot, prev *obs.Snapshot) string {
	if prev == nil {
		return "-"
	}
	d := func(name string) float64 {
		v := snap.Value(name) - prev.Value(name)
		if v < 0 {
			return 0
		}
		return v
	}
	hits, misses, shared := d("reccache_hits_total"), d("reccache_misses_total"), d("reccache_shared_total")
	total := hits + misses + shared
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*(hits+shared)/total)
}

// appendRate is the WAL append throughput over the window, read from
// the append histogram's _count.
func appendRate(snap obs.Snapshot, prev *obs.Snapshot, dt float64) float64 {
	fam, ok := snap.Family("jobstore_wal_append_seconds")
	if !ok || prev == nil || dt <= 0 {
		return 0
	}
	pf, ok := prev.Family("jobstore_wal_append_seconds")
	if !ok {
		return float64(fam.Merged().Count) / dt
	}
	cur, old := fam.Merged().Count, pf.Merged().Count
	if old > cur {
		old = 0
	}
	return float64(cur-old) / dt
}

// ms renders a seconds quantile as a human latency, "-" when unknown.
func ms(seconds float64) string {
	if math.IsNaN(seconds) {
		return "-"
	}
	switch {
	case seconds < 0.001:
		return fmt.Sprintf("%.0fµs", seconds*1e6)
	case seconds < 1:
		return fmt.Sprintf("%.1fms", seconds*1e3)
	}
	return fmt.Sprintf("%.2fs", seconds)
}

// humanRate compacts large per-second rates (evals/sec reaches
// millions on wide searches).
func humanRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.1f", v)
}
