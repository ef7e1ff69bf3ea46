// Command uptimectl is the CLI client for a running brokerd.
//
// Usage:
//
//	uptimectl -server http://localhost:8080 <subcommand> [flags]
//
// Subcommands:
//
//	recommend   submit a recommendation request (-topology file.json or
//	            -casestudy; -strategy picks the solver; -budget/
//	            -max-evaluations cap a frontier search, which then
//	            answers with a certified incumbent; -local -format
//	            text|markdown|csv runs the brokerage in-process). Every
//	            option card is listed, so the space may hold at most
//	            1024 options; larger ones are answered by job submit.
//	pareto      print the cost × uptime frontier for a request
//	job         async brokerage over /v2/jobs:
//	              job submit -kind recommend|pareto (-topology|-casestudy)
//	                         [-strategy S] [-budget D]
//	                         [-max-evaluations N] [-wait] [-quiet]
//	              job status JOB-ID
//	              job wait   [-quiet] JOB-ID   (streams evaluated/space_size
//	                         progress to stderr unless -quiet)
//	              job cancel JOB-ID
//	              job list   [-state STATE] [-limit N]
//	scenarios   list the built-in scenario library, or -run NAME one
//	catalog     list the HA technologies and providers
//	params      show the parameter estimate for -provider and -class
//	observe     submit one telemetry observation
//	metrics     show job and result-cache counters, the invalidation
//	            epochs and the server's build info
//	top         live terminal dashboard over the /v2/metrics/events
//	            stream (-interval sets the refresh cadence)
//	health      check service liveness
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uptimectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uptimectl", flag.ContinueOnError)
	var (
		server  = fs.String("server", "http://127.0.0.1:8080", "brokerd base URL")
		timeout = fs.Duration("timeout", 30*time.Second, "request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand (recommend, pareto, job, scenarios, catalog, params, observe, metrics, top, health)")
	}

	client, err := httpapi.NewClient(*server, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch rest[0] {
	case "recommend":
		return cmdRecommend(ctx, client, rest[1:])
	case "pareto":
		return cmdPareto(ctx, client, rest[1:])
	case "job":
		return cmdJob(ctx, client, rest[1:])
	case "catalog":
		return cmdCatalog(ctx, client)
	case "scenarios":
		return cmdScenarios(ctx, client, rest[1:])
	case "params":
		return cmdParams(ctx, client, rest[1:])
	case "observe":
		return cmdObserve(ctx, client, rest[1:])
	case "metrics":
		return cmdMetrics(ctx, client)
	case "top":
		// The dashboard runs until interrupted, so it gets a
		// signal-scoped context instead of the request timeout.
		topCtx, topCancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer topCancel()
		return cmdTop(topCtx, client, rest[1:])
	case "health":
		if err := client.Health(ctx); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// loadRequest resolves the request from -casestudy / -topology flags;
// a non-empty strategy overrides whatever the topology file carries.
func loadRequest(topologyPath string, caseStudy bool, strategy string) (httpapi.RecommendationRequest, error) {
	var req httpapi.RecommendationRequest
	switch {
	case caseStudy:
		req = caseStudyRequest()
	case topologyPath != "":
		data, err := os.ReadFile(topologyPath)
		if err != nil {
			return req, fmt.Errorf("reading topology: %w", err)
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return req, fmt.Errorf("parsing topology: %w", err)
		}
	default:
		return req, fmt.Errorf("need -topology FILE or -casestudy")
	}
	if strategy != "" {
		req.Strategy = strategy
	}
	return req, nil
}

// strategyUsage documents the flag shared by the request subcommands.
const strategyUsage = "solver strategy: auto (default), frontier or exhaustive; the retired pruned, branch-and-bound, parallel-pruned, beam, lds and bounded still run frontier"

// solverFlags are the search budget shared by recommend, pareto and
// job submit. They populate the request's nested solver spec only
// when set, so flag-less invocations keep the flat wire form (and its
// cache address) untouched.
type solverFlags struct {
	budget   time.Duration
	maxEvals int64
}

// registerSolverFlags attaches the shared budget flags to fs.
func registerSolverFlags(fs *flag.FlagSet) *solverFlags {
	sf := &solverFlags{}
	fs.DurationVar(&sf.budget, "budget", 0, "wall-clock search budget, e.g. 500ms; frontier stops and certifies a gap, exhaustive fails (0 = unlimited)")
	fs.Int64Var(&sf.maxEvals, "max-evaluations", 0, "cap on the evaluations the search performs; frontier and auto only (0 = unlimited)")
	return sf
}

// apply folds any set flags into the request's nested solver spec.
func (sf *solverFlags) apply(req *httpapi.RecommendationRequest) {
	if sf.budget == 0 && sf.maxEvals == 0 {
		return
	}
	if req.Solver == nil {
		req.Solver = &httpapi.SolverConfigDTO{}
	}
	req.Solver.BudgetMS = sf.budget.Milliseconds()
	req.Solver.MaxEvaluations = sf.maxEvals
}

func cmdRecommend(ctx context.Context, client *httpapi.Client, args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	var (
		topologyPath = fs.String("topology", "", "path to a recommendation request JSON file")
		caseStudy    = fs.Bool("casestudy", false, "use the paper's built-in case study request")
		strategy     = fs.String("strategy", "", strategyUsage)
		local        = fs.Bool("local", false, "run the brokerage in-process instead of calling a server")
		format       = fs.String("format", "text", "output format with -local: text, markdown or csv")
	)
	solver := registerSolverFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := loadRequest(*topologyPath, *caseStudy, *strategy)
	if err != nil {
		return err
	}
	solver.apply(&req)

	if *local {
		return recommendLocal(req, *format)
	}
	resp, err := client.Recommend(ctx, req)
	if err != nil {
		return err
	}
	return printRecommendation(resp)
}

// recommendLocal runs the default in-process engine and renders the
// answer with every option card via the report package.
func recommendLocal(req httpapi.RecommendationRequest, format string) error {
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		return err
	}
	ctx := context.Background()
	rec, err := engine.Recommend(ctx, req.ToBroker())
	if err != nil {
		return err
	}
	cards, _, err := engine.Cards(ctx, req.ToBroker(), 0, rec.Search.SpaceSize)
	if err != nil {
		return err
	}
	switch format {
	case "text":
		return report.Text(os.Stdout, rec, cards)
	case "markdown":
		return report.Markdown(os.Stdout, rec, cards)
	case "csv":
		return report.CSV(os.Stdout, rec, cards)
	default:
		return fmt.Errorf("unknown format %q (text, markdown, csv)", format)
	}
}

func cmdPareto(ctx context.Context, client *httpapi.Client, args []string) error {
	fs := flag.NewFlagSet("pareto", flag.ContinueOnError)
	var (
		topologyPath = fs.String("topology", "", "path to a recommendation request JSON file")
		caseStudy    = fs.Bool("casestudy", false, "use the paper's built-in case study request")
		strategy     = fs.String("strategy", "", strategyUsage)
	)
	solver := registerSolverFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req, err := loadRequest(*topologyPath, *caseStudy, *strategy)
	if err != nil {
		return err
	}
	solver.apply(&req)
	front, err := client.Pareto(ctx, req)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "option\tHA selection\tC_HA $/mo\tuptime %")
	for _, c := range front {
		fmt.Fprintf(w, "#%d\t%s\t%.2f\t%.4f\n", c.Option, c.Label, c.HACostUSD, c.UptimePercent)
	}
	return w.Flush()
}

func printRecommendation(resp httpapi.RecommendationResponse) error {
	fmt.Printf("system %q on %s — SLA %.2f%%\n\n", resp.System, resp.Provider, resp.SLAPercent)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "option\tHA selection\tC_HA $/mo\tuptime %\tpenalty $/mo\tTCO $/mo\tmeets SLA")
	for _, c := range resp.Cards {
		marker := ""
		if c.Option == resp.BestOption {
			marker = " *"
		}
		fmt.Fprintf(w, "#%d%s\t%s\t%.2f\t%.4f\t%.2f\t%.2f\t%v\n",
			c.Option, marker, c.Label, c.HACostUSD, c.UptimePercent, c.PenaltyUSD, c.TCOUSD, c.MeetsSLA)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nrecommended: option #%d", resp.BestOption)
	if resp.MinRiskOption > 0 {
		fmt.Printf("   min-risk: option #%d", resp.MinRiskOption)
	}
	if resp.AsIsOption > 0 {
		fmt.Printf("   as-is: option #%d (savings %.1f%%)", resp.AsIsOption, resp.SavingsPercent)
	}
	fmt.Println()
	strategy := resp.Search.Strategy
	if strategy == "" {
		strategy = "unknown" // pre-strategy server
	}
	fmt.Printf("search: %s solver, %d evaluated + %d skipped of %d\n",
		strategy, resp.Search.Evaluated, resp.Search.Skipped, resp.Search.SpaceSize)
	if resp.Search.Approximate {
		cert := "no lower bound proven"
		switch {
		case resp.Search.Optimal != nil && *resp.Search.Optimal:
			cert = "proven optimal"
		case resp.Search.Gap != nil:
			cert = fmt.Sprintf("within %.2f%% of optimal", 100**resp.Search.Gap)
		}
		if resp.Search.BoundUSD != nil {
			cert += fmt.Sprintf(" (certified bound $%.2f/mo)", *resp.Search.BoundUSD)
		}
		if resp.Search.BudgetExhausted != nil && *resp.Search.BudgetExhausted {
			cert += ", budget exhausted"
		}
		fmt.Printf("certificate: %s\n", cert)
	}
	if resp.Cache != "" {
		fmt.Printf("cache: %s\n", resp.Cache)
	}
	return nil
}

// cmdMetrics prints the server's operational counters: async job
// metrics always, result-cache counters and epochs when the server
// caches.
func cmdMetrics(ctx context.Context, client *httpapi.Client) error {
	m, err := client.Metrics(ctx)
	if err != nil {
		return err
	}
	if m.Jobs.Degraded {
		fmt.Println("store: DEGRADED — read-only after a storage failure; submissions refused, reads still serving")
	}
	fmt.Printf("jobs: %d submitted, %d done, %d failed, %d cancelled, queue depth %d\n",
		m.Jobs.Submitted, m.Jobs.Done, m.Jobs.Failed, m.Jobs.Cancelled, m.Jobs.QueueDepth)
	fmt.Printf("catalog epoch: %d\n", m.CatalogEpoch)
	if m.ParamsEpoch != nil {
		fmt.Printf("params epoch: %d\n", *m.ParamsEpoch)
	}
	if m.Cache == nil {
		fmt.Println("result cache: disabled")
	} else {
		c := m.Cache
		fmt.Printf("result cache: %d hits, %d misses, %d shared (hit rate %.1f%%), %d inflight\n",
			c.Hits, c.Misses, c.Shared, 100*c.HitRate, c.Inflight)
		fmt.Printf("occupancy: %d entries, ~%d bytes; %d folds, ~%d bytes (%d evicted, %d expired)\n",
			c.Entries, c.Bytes, c.FoldEntries, c.FoldBytes, c.Evictions, c.Expired)
	}
	printBuildInfo(m)
	return nil
}

// printBuildInfo appends the server's identity lines when the server
// reports them (older servers omit the field).
func printBuildInfo(m httpapi.MetricsResponse) {
	if m.RateLimiter != nil {
		fmt.Printf("rate limiter: %d client buckets\n", m.RateLimiter.ClientBuckets)
	}
	if m.Build == nil {
		return
	}
	fmt.Printf("build: %s (%s)\n", m.Build.Version, m.Build.GoVersion)
	fmt.Printf("up: %s (started %s)\n",
		(time.Duration(m.Build.UptimeSeconds) * time.Second).Round(time.Second),
		m.Build.StartedAt.Local().Format(time.RFC3339))
}

func cmdCatalog(ctx context.Context, client *httpapi.Client) error {
	techs, err := client.Technologies(ctx)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tlayer\tmode\tstandby\tfailover s\tinfra $/mo\tlabor h/mo")
	for _, t := range techs {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%.0f\t%.0f+%.0f/standby\t%.0f\n",
			t.ID, t.Layer, t.Mode, t.StandbyNodes, t.FailoverSeconds,
			t.InfraFixedUSD, t.InfraPerStandbyUSD, t.LaborHoursPerMonth)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	providers, err := client.Providers(ctx)
	if err != nil {
		return err
	}
	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "provider\tdisplay name\tlabor $/h\tinfra multiplier")
	for _, p := range providers {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.2f\n", p.Name, p.DisplayName, p.LaborRateUSD, p.InfraMultiplier)
	}
	return w.Flush()
}

func cmdScenarios(ctx context.Context, client *httpapi.Client, args []string) error {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	var (
		provider = fs.String("provider", "", "provider to place scenarios on (default: reference cloud)")
		run      = fs.String("run", "", "run the brokerage on the named scenario instead of listing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *run != "" {
		resp, err := client.ScenarioRecommendation(ctx, *run, *provider)
		if err != nil {
			return err
		}
		return printRecommendation(resp)
	}

	scenarios, err := client.Scenarios(ctx, *provider)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "name\tcomponents\tSLA %\tpenalty $/h\tdescription")
	for _, sc := range scenarios {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.0f\t%s\n",
			sc.Name, sc.Components, sc.SLAPercent, sc.PenaltyPerHourUSD, sc.Description)
	}
	return w.Flush()
}

func cmdParams(ctx context.Context, client *httpapi.Client, args []string) error {
	fs := flag.NewFlagSet("params", flag.ContinueOnError)
	var (
		provider = fs.String("provider", "", "provider name")
		class    = fs.String("class", "", "component class")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *provider == "" || *class == "" {
		return fmt.Errorf("params needs -provider and -class")
	}
	p, err := client.Params(ctx, *provider, *class)
	if err != nil {
		return err
	}
	fmt.Printf("%s/%s (source: %s)\n", p.Provider, p.Class, p.Source)
	fmt.Printf("  P (down probability):  %.6f\n", p.Down)
	fmt.Printf("  f (failures/year):     %.2f\n", p.FailuresPerYear)
	if p.FailoverSeconds > 0 {
		fmt.Printf("  t (mean failover):     %.0fs (p95 %.0fs)\n", p.FailoverSeconds, p.FailoverP95Seconds)
	}
	if p.ExposureYears > 0 {
		fmt.Printf("  exposure:              %.1f node-years\n", p.ExposureYears)
	}
	return nil
}

func cmdObserve(ctx context.Context, client *httpapi.Client, args []string) error {
	fs := flag.NewFlagSet("observe", flag.ContinueOnError)
	var (
		provider = fs.String("provider", "", "provider name")
		class    = fs.String("class", "", "component class")
		kind     = fs.String("kind", "", "outage, failover or exposure")
		seconds  = fs.Float64("seconds", 0, "observation magnitude in seconds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obs := httpapi.Observation{Provider: *provider, Class: *class, Kind: *kind, Seconds: *seconds}
	if err := client.Observe(ctx, obs); err != nil {
		return err
	}
	fmt.Println("recorded")
	return nil
}

// caseStudyRequest is the wire form of the paper's case study.
func caseStudyRequest() httpapi.RecommendationRequest {
	cs := broker.CaseStudy()
	return httpapi.RecommendationRequest{
		Base:              cs.Base,
		SLAPercent:        cs.SLA.UptimePercent,
		PenaltyPerHourUSD: cs.SLA.Penalty.PerHour.Dollars(),
		AsIs:              map[string]string(cs.AsIs),
		AllowedTechs:      cs.AllowedTechs,
	}
}

// cmdJob drives the v2 async job surface.
func cmdJob(ctx context.Context, client *httpapi.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("job needs a subcommand (submit, status, wait, cancel, list)")
	}
	switch args[0] {
	case "submit":
		fs := flag.NewFlagSet("job submit", flag.ContinueOnError)
		var (
			kind         = fs.String("kind", "recommend", "job kind: recommend or pareto")
			topologyPath = fs.String("topology", "", "path to a recommendation request JSON file")
			caseStudy    = fs.Bool("casestudy", false, "use the paper's built-in case study request")
			strategy     = fs.String("strategy", "", strategyUsage)
			wait         = fs.Bool("wait", false, "block until the job finishes and print its result")
			quiet        = fs.Bool("quiet", false, "with -wait: suppress the live progress display")
		)
		solver := registerSolverFlags(fs)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		req, err := loadRequest(*topologyPath, *caseStudy, *strategy)
		if err != nil {
			return err
		}
		solver.apply(&req)
		status, err := client.SubmitJob(ctx, *kind, req)
		if err != nil {
			return err
		}
		if !*wait {
			fmt.Printf("%s %s (%s)\n", status.ID, status.State, status.Kind)
			return nil
		}
		return waitJobVerbose(ctx, client, status.ID, *quiet)
	case "status":
		if len(args) != 2 {
			return fmt.Errorf("usage: job status JOB-ID")
		}
		status, err := client.GetJob(ctx, args[1])
		if err != nil {
			return err
		}
		return printJob(status, false)
	case "wait":
		fs := flag.NewFlagSet("job wait", flag.ContinueOnError)
		quiet := fs.Bool("quiet", false, "suppress the live progress display on stderr")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: job wait [-quiet] JOB-ID")
		}
		return waitJobVerbose(ctx, client, fs.Arg(0), *quiet)
	case "cancel":
		if len(args) != 2 {
			return fmt.Errorf("usage: job cancel JOB-ID")
		}
		status, err := client.CancelJob(ctx, args[1])
		if err != nil {
			return err
		}
		return printJob(status, false)
	case "list":
		fs := flag.NewFlagSet("job list", flag.ContinueOnError)
		var (
			state = fs.String("state", "", "only list jobs in this state (queued, running, done, failed, cancelled)")
			limit = fs.Int("limit", 0, "list at most N jobs, newest first (0 = all)")
		)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		jobsList, err := client.ListJobs(ctx, httpapi.WithStateFilter(*state), httpapi.WithLimit(*limit))
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "id\tkind\tstate\tprogress\tcreated")
		for _, j := range jobsList {
			progress := "-"
			if j.Progress != nil {
				progress = fmt.Sprintf("%.1f%%", j.Progress.Percent)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", j.ID, j.Kind, j.State, progress, j.CreatedAt.Format(time.RFC3339))
		}
		return w.Flush()
	default:
		return fmt.Errorf("unknown job subcommand %q (submit, status, wait, cancel, list)", args[0])
	}
}

// waitJobVerbose waits for a job, streaming live progress
// (evaluated/space_size with a percentage) to stderr so a long
// enumeration is not a silent stall; -quiet suppresses the display.
// The rendered result goes to stdout as usual, so piping it stays
// clean either way.
func waitJobVerbose(ctx context.Context, client *httpapi.Client, id string, quiet bool) error {
	var opts []httpapi.WaitOption
	shown := false
	if !quiet {
		opts = append(opts, httpapi.WithProgress(func(p httpapi.JobProgress) {
			solver := ""
			if p.Strategy != "" {
				solver = " [" + p.Strategy + "]"
			}
			if p.SpaceSize > 0 {
				fmt.Fprintf(os.Stderr, "\r%s %s%s: %d/%d evaluated (%.1f%%)  ",
					p.JobID, p.State, solver, p.Evaluated, p.SpaceSize, 100*p.Fraction())
			} else {
				fmt.Fprintf(os.Stderr, "\r%s %s%s...  ", p.JobID, p.State, solver)
			}
			shown = true
		}))
	}
	status, err := client.WaitJob(ctx, id, opts...)
	if shown {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	return printJob(status, true)
}

// printJob renders one job; withResult also renders a finished
// recommend/pareto payload. When the caller waited for an outcome
// (withResult), a failed or cancelled job is a non-zero exit so
// scripts can trust the status code.
func printJob(status httpapi.JobStatus, withResult bool) error {
	fmt.Printf("%s %s (%s)\n", status.ID, status.State, status.Kind)
	if status.Error != nil {
		fmt.Printf("  error: %s (%s)\n", status.Error.Detail, status.Error.Code)
	}
	if !withResult {
		return nil
	}
	if status.State != "done" {
		return fmt.Errorf("job %s finished as %s", status.ID, status.State)
	}
	switch status.Kind {
	case httpapi.JobKindRecommend:
		resp, err := status.Recommendation()
		if err != nil {
			return err
		}
		fmt.Println()
		return printRecommendation(resp)
	case httpapi.JobKindPareto:
		front, err := status.ParetoFront()
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "option\tHA selection\tC_HA $/mo\tuptime %")
		for _, c := range front {
			fmt.Fprintf(w, "#%d\t%s\t%.2f\t%.4f\n", c.Option, c.Label, c.HACostUSD, c.UptimePercent)
		}
		return w.Flush()
	}
	return nil
}
