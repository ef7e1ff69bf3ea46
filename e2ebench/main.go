// Command e2ebench is the end-to-end benchmark of the brokerage
// service. It runs a prebuilt brokerd as its own process on loopback,
// drives it from closed-loop callers through one seeded workload,
// checks every answer against an oracle outside the timed phase, and
// prints the workload's metrics with a JSON summary as the last line.
// With -trace 1 it reports the per-layer split instead: the same
// schedule with client spans on every other op, then an in-process
// replay of a sample that times the calls into each layer.
//
// Run it through run.sh from the repository root, which builds brokerd
// and this program first:
//
//	bash e2ebench/run.sh --workload paper-mix --seed 1 --seconds 10 --trace 0
//
// -repeat N runs N seeds as separate processes and prints each
// metric's median and quartiles.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	brokerd  string
	workdir  string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-mix, wide-miss, search-wide or jobs-durable")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "run length that sizes the op count")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	bin := fs.String("brokerd", "", "path of the brokerd binary under test")
	workdir := fs.String("workdir", "", "scratch directory for data dirs and span files")
	repeat := fs.Int("repeat", 0, "run this many seeds (from -seed up) and print each metric's quartiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if *bin == "" || *workdir == "" {
		return errors.New("-brokerd and -workdir are required (run.sh sets them)")
	}
	if *repeat > 0 {
		return repeatRuns(args, *seed, *repeat, stdout)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, brokerd: *bin, workdir: *workdir}
	res, err := runOnce(cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("the server gave wrong answers (listed above on stderr)")
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is set.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  %-26s %14.4f %-6s %s\n", name, v, unit, note)
}

// runOnce is one benchmark run.
func runOnce(cfg config, stdout io.Writer) (*result, error) {
	start := time.Now()
	w := cfg.workload
	sched := buildSchedule(w, cfg.seed, cfg.seconds)
	runDir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	fmt.Fprintf(stdout, "e2ebench %s seed %d: %d timed ops over %d callers (trace %v)\n",
		w.name, cfg.seed, len(sched.timed), w.callers, cfg.trace)

	ctx := context.Background()
	hc := newHTTPClient(w.callers)
	defer hc.CloseIdleConnections()

	// A durable workload recovers a journal seeded by an untimed prefix
	// of its schedule; every set-up starts from a copy of it.
	var seeded string
	if len(sched.journal) > 0 {
		seeded = filepath.Join(runDir, "seeded")
		if err := seedJournal(ctx, cfg, hc, seeded, sched.journal); err != nil {
			return nil, err
		}
	}

	setups := w.setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var b *brokerd
	for i := range setups {
		dir := filepath.Join(runDir, fmt.Sprintf("data%d", i))
		if err := copyDir(seeded, dir); err != nil {
			return nil, err
		}
		inst, secs, err := setUp(ctx, cfg, hc, dir, sched.warmup)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, secs)
		if i < setups-1 {
			inst.kill()
			continue
		}
		b = inst
	}
	defer b.kill()
	setupDone := time.Now()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	gen, err := newLoadgen(hc, b.base, tr)
	if err != nil {
		return nil, err
	}
	before, err := gen.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	ticks0, err := b.cpuTicks()
	if err != nil {
		return nil, err
	}
	host0, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	ref0 := referenceLoopMS()
	traced := make([]bool, len(sched.timed))
	if cfg.trace {
		traced = alternateWithinClass(sched.timed)
	}
	deadline := time.Now().Add(timedLimit(float64(len(sched.timed)) / w.rate))
	outcomes, elapsed := runClosedLoop(sched.timed, w.callers, deadline, func(buf *bytes.Buffer, i int) outcome {
		return gen.do(ctx, buf, sched.timed[i], i, traced[i])
	})
	ticks1, err := b.cpuTicks()
	if err != nil {
		return nil, err
	}
	host1, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	ref1 := referenceLoopMS()
	hwm, err := b.peakRSSKB()
	if err != nil {
		return nil, err
	}
	after, err := gen.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	b.kill()

	// The oracle runs after the timed phase, off the measured path.
	or, err := newOracle()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: len(outcomes), Metrics: map[string]metric{}}
	passed := 0
	var problems []string
	for i, out := range outcomes {
		o := sched.timed[i]
		if !out.ok {
			res.Failed++
			problems = append(problems, fmt.Sprintf("op %d (%s %s): %s", i, o.kind, o.class, out.err))
			continue
		}
		if o.kind == opObserve {
			passed++
			continue
		}
		if err := or.check(o, out.ans); err != nil {
			res.Correct = false
			problems = append(problems, fmt.Sprintf("op %d (%s %s): wrong answer: %v", i, o.kind, o.class, err))
			continue
		}
		if wire, err := wireRequest(o); err == nil && caseStudyTerms(wire) {
			if err := checkCaseStudy(out.ans); err != nil {
				res.Correct = false
				problems = append(problems, err.Error())
				continue
			}
		}
		passed++
	}
	if err := checkCaseStudyInProcess(or); err != nil {
		res.Correct = false
		problems = append(problems, err.Error())
	}
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... and %d more\n", len(problems)-10)
			break
		}
		fmt.Fprintln(os.Stderr, p)
	}

	fmt.Fprintf(stdout, "  phases: set-up %.1fs, timed %.1fs, oracle %.1fs\n",
		setupDone.Sub(start).Seconds(), elapsed.Seconds(), time.Since(setupDone.Add(elapsed)).Seconds())
	// Steal is CPU time the hypervisor gave to other guests while this
	// machine wanted it; the reference loop catches a slower host that
	// steal does not show (a busy sibling thread, memory bandwidth).
	fmt.Fprintf(stdout, "%s %.1f%% of CPU time stolen during the timed phase; reference loop %.2f ms before it, %.2f ms after\n",
		hostLinePrefix, host1.stealPercent(host0), ref0, ref1)

	rep := &report{out: stdout, metrics: res.Metrics}
	if cfg.trace {
		if err := layerMetrics(ctx, cfg, sched, outcomes, before, after, gen.tr, rep); err != nil {
			return nil, err
		}
		return res, nil
	}

	failValue := ms(elapsed)
	var lat, ack []float64
	for _, out := range outcomes {
		if out.ok {
			lat = append(lat, out.latMS)
			ack = append(ack, out.ackMS)
		}
	}
	latR := newLatencies(lat, res.Failed, failValue)
	ackR := newLatencies(ack, res.Failed, failValue)
	p50, _, _ := latR.percentile(0.5)
	tail, beyond, ok := latR.percentile(w.tail)
	if !ok {
		return nil, fmt.Errorf("%s has only %d samples above it", percentileName(w.tail), beyond)
	}
	ack50, _, _ := ackR.percentile(0.5)
	n := latR.count()
	rep.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups: %.3f", len(setupS), setupS))
	rep.set("ok_ratio", float64(passed)/float64(len(outcomes)), "ratio", fmt.Sprintf("%d of %d ops answered and correct", passed, len(outcomes)))
	rep.set("throughput_rps", float64(len(outcomes)-res.Failed)/elapsed.Seconds(), "1/s", fmt.Sprintf("over %.2fs", elapsed.Seconds()))
	rep.set("latency_p50_ms", p50, "ms", fmt.Sprintf("n=%d", n))
	rep.set("latency_tail_ms", tail, "ms", fmt.Sprintf("%s, n=%d, %d beyond", percentileName(w.tail), n, beyond))
	rep.set("ack_p50_ms", ack50, "ms", fmt.Sprintf("n=%d", n))
	rep.set("rss_peak_mb", float64(hwm)/1024, "MB", "brokerd VmHWM")
	rep.set("cpu_ms_per_op", float64(ticks1-ticks0)*1000/clockTicksPerSecond/float64(len(outcomes)), "ms", "brokerd user+system over the timed phase")
	return res, nil
}

// alternateWithinClass traces every other op of each class, so the
// traced and untraced halves hold the same mix and their medians
// differ only by the tracing itself.
func alternateWithinClass(ops []op) []bool {
	seen := map[string]int{}
	out := make([]bool, len(ops))
	for i, o := range ops {
		out[i] = seen[o.class]%2 == 0
		seen[o.class]++
	}
	return out
}

// timedLimit bounds a timed phase whose ops take nominal seconds on
// a quiet host: ops still unsent past it count as failed, so a run
// against a stalled server still ends in bounded time.
func timedLimit(nominal float64) time.Duration {
	return min(time.Duration((4*nominal+10)*float64(time.Second)), 120*time.Second)
}

// setUp execs brokerd over dir, waits for /readyz and runs the
// warm-up ops: set-up time is all of it.
func setUp(ctx context.Context, cfg config, hc *http.Client, dir string, warmup []op) (*brokerd, float64, error) {
	start := time.Now()
	b, err := launch(ctx, cfg, hc, dir, warmup)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return b, time.Since(start).Seconds(), nil
}

// seedJournal runs the seeding ops against a brokerd on dir, then
// stops it gracefully, leaving the journal a restart recovers.
func seedJournal(ctx context.Context, cfg config, hc *http.Client, dir string, ops []op) error {
	b, err := launch(ctx, cfg, hc, dir, ops)
	if err != nil {
		return fmt.Errorf("seeding the journal: %w", err)
	}
	return b.stop()
}

// launch execs brokerd over dir, waits for /readyz and sends untimed
// ops, all of which must succeed.
func launch(ctx context.Context, cfg config, hc *http.Client, dir string, ops []op) (*brokerd, error) {
	b, err := startBrokerd(cfg.brokerd, dir)
	if err != nil {
		return nil, err
	}
	if err := b.waitReady(ctx, hc); err != nil {
		b.kill()
		return nil, err
	}
	gen, err := newLoadgen(hc, b.base, nil)
	if err != nil {
		b.kill()
		return nil, err
	}
	outs, _ := runClosedLoop(ops, cfg.workload.callers, time.Now().Add(time.Minute), func(buf *bytes.Buffer, i int) outcome {
		return gen.do(ctx, buf, ops[i], i, false)
	})
	for i, out := range outs {
		if !out.ok {
			b.kill()
			return nil, fmt.Errorf("op %d (%s): %s", i, ops[i].kind, out.err)
		}
	}
	return b, nil
}

// checkCaseStudyInProcess pins the paper's anchors on the oracle's own
// engine, so a wrong oracle cannot pass wrong answers.
func checkCaseStudyInProcess(or *oracle) error {
	for _, o := range (&generator{pairs: scenarioPairs()}).paperKeys() {
		wire, err := wireRequest(o)
		if err != nil || !caseStudyTerms(wire) {
			continue
		}
		want, err := or.expect(o)
		if err != nil {
			return err
		}
		return checkCaseStudy(want.ans)
	}
	return errors.New("the paper grid lost the case study's own terms")
}

// copyDir copies a flat directory of regular files; an empty src
// makes an empty dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	if src == "" {
		return nil
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes is the total size of a flat directory's files.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
