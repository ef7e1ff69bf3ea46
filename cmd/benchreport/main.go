// Command benchreport runs the repo's named performance-scenario
// suite (incremental evaluation, solver strategies, result cache, job
// store append/recovery) and emits a schema-versioned JSON report —
// the BENCH_pr<N>.json files that form the repo's committed
// performance trajectory and gate CI.
//
// Usage:
//
//	benchreport [-label pr] [-benchtime 1s] [-run REGEX] [-out FILE]
//	            [-compare BASELINE.json] [-fail-over 25]
//	            [-require 'RATIO>=MIN[@PROCS]'] [-require 'RATIO<=MAX[@PROCS]']
//	            [-list]
//
// Without -out the report goes to stdout; progress and comparison
// summaries go to stderr either way.
//
// With -compare the report is held against a committed baseline:
// tracked scenarios that got more than -fail-over percent slower, or
// tracked speedup ratios that lost more than -fail-over percent of
// their value, fail the run (exit 1). Baselines from a different host
// fingerprint (OS/arch/cores) only warn — absolute timings are
// machine-shaped — so the regression gate arms once the baseline was
// generated on a comparable machine (in practice: by CI itself).
//
// -require pins a hard bound on a ratio regardless of any baseline:
// `-require 'cache_hit_speedup>=10'` asserts a result-cache hit is at
// least ten times faster than recomputing the n=19 answer (an @PROCS
// suffix, e.g. '>=2@4', skips a check on hosts with fewer schedulable
// cores); `-require 'frontier_n30_gap<=0'` caps a quality ratio — the optimality gap of
// the budgeted n=30 frontier run — at 0, i.e. an exact answer.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	"uptimebroker/internal/benchreport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		label     = fs.String("label", "dev", "report label, e.g. pr4 for a committed baseline")
		benchTime = fs.Duration("benchtime", time.Second, "per-scenario measurement budget")
		runExpr   = fs.String("run", "", "only run scenarios whose name matches this regexp")
		out       = fs.String("out", "", "write the JSON report to this file (default stdout)")
		compare   = fs.String("compare", "", "hold the run against this baseline report")
		failOver  = fs.Float64("fail-over", 25, "fail on tracked regressions beyond this percentage (with -compare)")
		list      = fs.Bool("list", false, "list scenario names and exit")
	)
	var requires []benchreport.Requirement
	fs.Func("require", "hard ratio bound RATIO>=MIN[@PROCS] or RATIO<=MAX[@PROCS]; repeatable", func(s string) error {
		req, err := benchreport.ParseRequirement(s)
		if err != nil {
			return err
		}
		requires = append(requires, req)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, spec := range benchreport.Suite() {
			fmt.Println(spec.Name)
		}
		return nil
	}

	var filter *regexp.Regexp
	if *runExpr != "" {
		re, err := regexp.Compile(*runExpr)
		if err != nil {
			return fmt.Errorf("bad -run pattern: %w", err)
		}
		filter = re
	}

	report, err := benchreport.Run(benchreport.Options{
		Label:     *label,
		BenchTime: *benchTime,
		Filter:    filter,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	} else if err := report.Encode(os.Stdout); err != nil {
		return err
	}

	failed := false
	for _, req := range requires {
		enforced, err := req.Check(&report)
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "REQUIREMENT FAILED:", err)
			failed = true
		case !enforced:
			fmt.Fprintf(os.Stderr, "requirement %s skipped (GOMAXPROCS %d < %d)\n",
				req, report.Host.GOMAXPROCS, req.MinGOMAXPROCS)
		default:
			fmt.Fprintf(os.Stderr, "requirement %s ok\n", req)
		}
	}

	if *compare != "" {
		baseline, err := benchreport.LoadFile(*compare)
		if err != nil {
			return fmt.Errorf("loading baseline: %w", err)
		}
		cmp := benchreport.Compare(baseline, report, *failOver)
		for _, w := range cmp.Warnings {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
		for _, d := range cmp.Deltas {
			mark := " "
			if d.Regression {
				mark = "!"
			}
			fmt.Fprintf(os.Stderr, "%s %-32s %-8s %14.2f -> %14.2f  (%+.1f%%)\n",
				mark, d.Name, d.Kind, d.Old, d.New, d.ChangePct)
		}
		if len(cmp.Regressions) > 0 {
			fmt.Fprintf(os.Stderr, "%d tracked regression(s) beyond %.0f%% against %s\n",
				len(cmp.Regressions), *failOver, *compare)
			failed = true
		}
	}

	if failed {
		return fmt.Errorf("performance gate failed")
	}
	return nil
}
