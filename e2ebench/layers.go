package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/telemetry"
)

// probeOpBase numbers the in-process replay's ops apart from the
// timed phase's in the span file.
const probeOpBase = 1 << 30

// observeProbes is how many telemetry observations the replay times.
const observeProbes = 50

// recoveryProbes is how many times the replay recovers its journal.
const recoveryProbes = 3

// layerMetrics derives the per-layer split. Three come from the traced
// HTTP phase against brokerd (cache hit ratio and residency from
// /v2/metrics, and the tracing overhead from its alternating traced
// and untraced ops); the rest come from an in-process replay of a
// sample of the same schedule that times the calls into each layer's
// public functions on the workload's own requests, through the engine
// entry point its route uses (Pareto on search-wide, Recommend
// elsewhere).
func layerMetrics(ctx context.Context, cfg config, sched schedule, outcomes []outcome,
	before, after httpapi.MetricsResponse, tr *tracer, rep *report) error {
	var tracedLat, plainLat []float64
	for _, out := range outcomes {
		switch {
		case !out.ok:
		case out.traced:
			tracedLat = append(tracedLat, out.latMS)
		default:
			plainLat = append(plainLat, out.latMS)
		}
	}

	p, err := newProbe(cfg.workload.name, cfg.workdir)
	if err != nil {
		return err
	}
	defer p.close()
	sample := probeSample(cfg.workload, sched.timed)
	gc0 := readRuntime()
	var stats []opStats
	for k, o := range sample {
		st, err := p.op(ctx, tr, o, probeOpBase+k)
		if err != nil {
			return fmt.Errorf("in-process replay of %s op: %w", o.class, err)
		}
		stats = append(stats, st)
	}
	gc1 := readRuntime()
	jobs, err := p.jobLeg(ctx, tr, sample, probeOpBase+len(sample))
	if err != nil {
		return err
	}
	if err := p.observeLeg(tr, probeOpBase+2*len(sample)); err != nil {
		return err
	}
	anytimeOK := p.anytime()

	spanFile := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	if err := tr.write(spanFile); err != nil {
		return err
	}
	fmt.Fprintf(rep.out, "  spans: %s (%d ops replayed in-process)\n", spanFile, len(sample))

	per := func(f func(opStats) float64) float64 {
		xs := make([]float64, len(stats))
		for i, s := range stats {
			xs[i] = f(s)
		}
		return median(xs)
	}
	note := fmt.Sprintf("median of %d replayed ops", len(stats))
	rep.set("httpapi.decode_ms", per(func(s opStats) float64 { return s.decode }), "ms", note)
	rep.set("httpapi.serve_self_ms", per(func(s opStats) float64 { return s.serve - s.decode - s.engine - s.encode }), "ms", note)
	rep.set("httpapi.encode_ms", per(func(s opStats) float64 { return s.encode }), "ms", note)
	rep.set("httpapi.response_kb", per(func(s opStats) float64 { return s.responseKB }), "kB", note)
	rep.set("httpapi.client_decode_ms", per(func(s opStats) float64 { return s.clientDecode }), "ms", note)
	rep.set("broker.compile_ms", per(func(s opStats) float64 { return s.compile }), "ms", note)
	rep.set("broker.cards_ms", per(func(s opStats) float64 { return s.engine - s.compile - s.search }), "ms", note)
	rep.set("broker.cards_per_op", per(func(s opStats) float64 { return s.cards }), "count", note)
	rep.set("broker.alloc_mb_per_op", per(func(s opStats) float64 { return s.allocMB }), "MB", note)
	rep.set("broker.frontier_ms", per(func(s opStats) float64 { return s.pareto - s.compile - s.stream }), "ms", note)
	rep.set("broker.anytime_ok", anytimeOK, "count", "n=30 beam request under a 500ms budget answered and certified")
	rep.set("reccache.hit_ratio", hitRatio(before, after), "ratio", "brokerd /v2/metrics over the timed phase")
	rep.set("reccache.hit_ms", per(func(s opStats) float64 { return s.hit }), "ms", note)
	rep.set("reccache.resident_mb", residentMB(after), "MB", "brokerd cache bytes at the end of the timed phase")
	rep.set("optimize.solve_ms", per(func(s opStats) float64 { return s.solve }), "ms", note)
	rep.set("optimize.stream_ms", per(func(s opStats) float64 { return s.stream }), "ms", note)
	rep.set("optimize.useful_ratio", per(func(s opStats) float64 { return s.useful }), "ratio", note)
	rep.set("jobs.queue_wait_ms", median(tr.durations("jobs.queue_wait", probeOpBase)), "ms", fmt.Sprintf("median of %d jobs", jobs.count))
	rep.set("jobs.run_ms", median(tr.durations("jobs.run", probeOpBase)), "ms", fmt.Sprintf("median of %d jobs", jobs.count))
	rep.set("jobs.fetch_ms", median(tr.durations("jobs.fetch", probeOpBase)), "ms", fmt.Sprintf("median of %d jobs", jobs.count))
	rep.set("jobstore.recovery_s", jobs.recoveryS, "s", fmt.Sprintf("median of %d recoveries", recoveryProbes))
	rep.set("jobstore.wal_kb_per_job", jobs.walKB, "kB", fmt.Sprintf("journal bytes over %d jobs", jobs.count))
	rep.set("telemetry.observe_ms", median(tr.durations("telemetry.observe", probeOpBase)), "ms", fmt.Sprintf("median of %d observations", observeProbes))
	rep.set("runtime.gc_cpu_share", gc1.gcShare(gc0), "ratio", "GC CPU over used CPU during the replay")
	rep.set("trace.overhead_ms", median(tracedLat)-median(plainLat), "ms",
		fmt.Sprintf("p50 of %d traced minus %d untraced ops", len(tracedLat), len(plainLat)))
	return nil
}

func hitRatio(before, after httpapi.MetricsResponse) float64 {
	if before.Cache == nil || after.Cache == nil {
		return 0
	}
	hits := after.Cache.Hits - before.Cache.Hits
	all := hits + after.Cache.Misses - before.Cache.Misses + after.Cache.Shared - before.Cache.Shared
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

func residentMB(m httpapi.MetricsResponse) float64 {
	if m.Cache == nil {
		return 0
	}
	return float64(m.Cache.Bytes) / (1 << 20)
}

// probeSample takes the first ops of each class in schedule order, in
// proportion to the class shares, so every seed replays the same mix.
func probeSample(w *workload, timed []op) []op {
	want := classCounts(w.classes, w.probeOps)
	idx := map[string]int{}
	for i, c := range w.classes {
		idx[c.name] = i
	}
	var out []op
	for _, o := range timed {
		i, ok := idx[o.class]
		if ok && want[i] > 0 {
			want[i]--
			out = append(out, o)
		}
	}
	return out
}

// opStats is one replayed op's layer timings (ms) and counts.
type opStats struct {
	decode, compile, solve, stream, search, engine, encode, clientDecode, serve, hit, pareto float64
	cards, responseKB, allocMB, useful                                                       float64
}

// probe holds the in-process engines and servers the replay calls:
// an uncached engine (every call does the full work), a cached one
// configured like brokerd (for warm-key hits), and a server on each.
type probe struct {
	uncached, cached *broker.Engine
	server           *httpapi.Server // over the uncached engine
	dir              string
}

// newEngine builds an engine with brokerd's parameter source and, when
// cached, its cache configuration.
func newEngine(store *telemetry.Store, cached bool) (*broker.Engine, error) {
	cat := catalog.Default()
	var opts []broker.EngineOption
	if cached {
		opts = append(opts, broker.WithResultCache(reccache.New(reccache.Config{MaxEntries: 1024, MaxBytes: cacheBytes})))
	}
	return broker.New(cat, broker.TelemetryParams{
		Store:            store,
		Fallback:         broker.CatalogParams{Catalog: cat},
		MinExposureYears: 1,
	}, opts...)
}

func newProbe(name, parent string) (*probe, error) {
	store := telemetry.NewStore()
	uncached, err := newEngine(store, false)
	if err != nil {
		return nil, err
	}
	cached, err := newEngine(telemetry.NewStore(), true)
	if err != nil {
		return nil, err
	}
	srv, err := httpapi.NewServer(uncached, store, log.New(io.Discard, "", 0))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "probe-"+name+"-")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &probe{uncached: uncached, cached: cached, server: srv, dir: dir}, nil
}

func (p *probe) close() {
	p.server.Close()
	os.RemoveAll(p.dir)
}

// routeKind is the engine entry point an op's route ends in.
func routeKind(o op) string {
	if o.kind == opPareto {
		return httpapi.JobKindPareto
	}
	if o.kind == opJob {
		var j httpapi.JobRequest
		if json.Unmarshal(o.body, &j) == nil {
			return j.Kind
		}
	}
	return httpapi.JobKindRecommend
}

// op replays one op through each layer, timing every call as a span
// under the op's root. Where one call contains another layer's work,
// the caller subtracts the inner calls timed separately on the same
// input.
func (p *probe) op(ctx context.Context, tr *tracer, o op, id int) (opStats, error) {
	var st opStats
	root := tr.begin("replay.op", id, -1)
	defer tr.finish(root)
	timed := func(name string, dst *float64, f func() error) error {
		sp := tr.begin(name, id, root)
		start := time.Now()
		err := f()
		*dst = ms(time.Since(start))
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	pareto := routeKind(o) == httpapi.JobKindPareto

	var req broker.Request
	var wire httpapi.RecommendationRequest
	if err := timed("httpapi.decode", &st.decode, func() error {
		var err error
		wire, err = wireRequest(o)
		req = wire.ToBroker()
		return err
	}); err != nil {
		return st, err
	}
	var prob *optimize.Problem
	if err := timed("broker.compile", &st.compile, func() error {
		var err error
		prob, err = p.uncached.Compile(req)
		return err
	}); err != nil {
		return st, err
	}
	var res optimize.Result
	if err := timed("optimize.solve", &st.solve, func() error {
		var err error
		res, err = optimize.SolveConfig(ctx, prob, solverConfig(req))
		return err
	}); err != nil {
		return st, err
	}
	st.useful = float64(res.Evaluated) / float64(prob.SpaceSize())
	if err := timed("optimize.stream", &st.stream, func() error {
		return prob.StreamContext(ctx, func(*optimize.Cursor) error { return nil })
	}); err != nil {
		return st, err
	}

	// The route's own engine call, uncached, with its heap allocation.
	var rec *broker.Recommendation
	alloc0 := readRuntime().allocBytes
	if err := timed("broker.engine", &st.engine, func() error {
		var err error
		if pareto {
			var front []broker.OptionCard
			front, err = p.uncached.Pareto(ctx, req)
			rec = &broker.Recommendation{Cards: front}
		} else {
			rec, err = p.uncached.Recommend(ctx, req)
		}
		return err
	}); err != nil {
		return st, err
	}
	st.allocMB = float64(readRuntime().allocBytes-alloc0) / (1 << 20)
	st.cards = float64(len(rec.Cards))
	st.search = st.solve
	if pareto {
		st.search = st.stream
		st.pareto = st.engine
	} else if err := timed("broker.pareto", &st.pareto, func() error {
		_, err := p.uncached.Pareto(ctx, req)
		return err
	}); err != nil {
		return st, err
	}

	// Encode as the route does: the pareto route writes the bare card
	// array, converted per card exactly as FromRecommendation does.
	var body []byte
	if err := timed("httpapi.encode", &st.encode, func() error {
		resp := httpapi.FromRecommendation(rec)
		var err error
		if pareto {
			body, err = json.Marshal(resp.Cards)
		} else {
			body, err = json.Marshal(resp)
		}
		return err
	}); err != nil {
		return st, err
	}
	st.responseKB = float64(len(body)) / 1024
	if err := timed("httpapi.client_decode", &st.clientDecode, func() error {
		if pareto {
			var cards []httpapi.OptionCardDTO
			return json.Unmarshal(body, &cards)
		}
		var resp httpapi.RecommendationResponse
		return json.Unmarshal(body, &resp)
	}); err != nil {
		return st, err
	}

	// The whole server path on a recorder, over the uncached engine.
	route := routes[opRecommend]
	if pareto {
		route = routes[opPareto]
	}
	reqBody := mustJSON(wire)
	if err := timed("httpapi.serve", &st.serve, func() error {
		rr := httptest.NewRecorder()
		p.server.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(reqBody)))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", rr.Code, truncate(rr.Body.String()))
		}
		return nil
	}); err != nil {
		return st, err
	}

	// A warm key on the cached engine: fill, then time the hit.
	call := func() error {
		var err error
		if pareto {
			_, err = p.cached.Pareto(ctx, req)
		} else {
			_, err = p.cached.Recommend(ctx, req)
		}
		return err
	}
	if err := call(); err != nil {
		return st, err
	}
	if err := timed("reccache.hit", &st.hit, call); err != nil {
		return st, err
	}
	return st, nil
}

// solverConfig is the config the engine resolves a request to.
func solverConfig(req broker.Request) optimize.SolverConfig {
	cfg := req.Solver
	if cfg.Strategy == "" {
		cfg.Strategy = req.Strategy
	}
	if cfg.Strategy == "" {
		cfg.Strategy = optimize.StrategyAuto
	}
	return cfg
}

// jobLegResult summarizes the replay's job leg.
type jobLegResult struct {
	count     int
	walKB     float64
	recoveryS float64
}

// jobLeg submits the sample as jobs of its route's kind to an
// in-process server on a group-commit journal (like brokerd's), over
// loopback so the event stream flushes as it does in production; then
// recovers a copy of that journal.
func (p *probe) jobLeg(ctx context.Context, tr *tracer, sample []op, firstID int) (jobLegResult, error) {
	var r jobLegResult
	dir := filepath.Join(p.dir, "jobs")
	// A fresh engine: the sample's keys are already warm on p.cached,
	// and brokerd's jobs run fresh terms.
	engine, err := newEngine(telemetry.NewStore(), true)
	if err != nil {
		return r, err
	}
	srv, err := httpapi.NewServer(engine, nil, log.New(io.Discard, "", 0), httpapi.WithJobDir(dir), httpapi.WithJobGroupCommit())
	if err != nil {
		return r, err
	}
	ts := httptest.NewServer(srv)
	gen, err := newLoadgen(newHTTPClient(1), ts.URL, tr)
	if err != nil {
		ts.Close()
		srv.Close()
		return r, err
	}
	submitErr := func() error {
		var buf bytes.Buffer
		for k, o := range sample {
			j := o
			if o.kind != opJob {
				wire, err := wireRequest(o)
				if err != nil {
					return err
				}
				j = op{kind: opJob, class: o.class, shape: o.shape, body: mustJSON(httpapi.JobRequest{Kind: routeKind(o), Request: wire})}
			}
			if out := gen.do(ctx, &buf, j, firstID+k, true); !out.ok {
				return fmt.Errorf("job leg: %s", out.err)
			}
		}
		return nil
	}()
	walBytes, sizeErr := dirBytes(dir)
	gen.hc.CloseIdleConnections()
	ts.Close()
	srv.Close()
	if submitErr != nil {
		return r, submitErr
	}
	if sizeErr != nil {
		return r, sizeErr
	}
	r.count = len(sample)
	r.walKB = float64(walBytes) / 1024 / float64(r.count)

	var secs []float64
	for i := range recoveryProbes {
		cp := filepath.Join(p.dir, fmt.Sprintf("recover%d", i))
		if err := copyDir(dir, cp); err != nil {
			return r, err
		}
		start := time.Now()
		rsrv, err := httpapi.NewServer(engine, nil, nil, httpapi.WithJobDir(cp), httpapi.WithJobGroupCommit())
		if err != nil {
			return r, fmt.Errorf("recovering the job journal: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		rsrv.Close()
	}
	r.recoveryS = median(secs)
	return r, nil
}

// observeLeg times telemetry ingestion through the server.
func (p *probe) observeLeg(tr *tracer, id int) error {
	body := (&generator{}).observation().body
	root := tr.begin("replay.observe", id, -1)
	defer tr.finish(root)
	for range observeProbes {
		sp := tr.begin("telemetry.observe", id, root)
		rr := httptest.NewRecorder()
		p.server.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, routes[opObserve], bytes.NewReader(body)))
		tr.finish(sp)
		if rr.Code != http.StatusAccepted {
			return fmt.Errorf("observation: HTTP %d: %s", rr.Code, truncate(rr.Body.String()))
		}
	}
	return nil
}

// anytime sends the n=30 beam request and reports 1 when it is
// answered with a certificate the closed form accepts, else 0.
func (p *probe) anytime() float64 {
	o := op{kind: opRecommend, shape: wideN30, body: mustJSON(anytimeWire())}
	rr := httptest.NewRecorder()
	p.server.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, routes[opRecommend], bytes.NewReader(o.body)))
	if rr.Code != http.StatusOK {
		return 0
	}
	var resp httpapi.RecommendationResponse
	if json.Unmarshal(rr.Body.Bytes(), &resp) != nil {
		return 0
	}
	or, err := newOracle()
	if err != nil || or.check(o, summarize(resp)) != nil {
		return 0
	}
	return 1
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes               uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idleCPU:    s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// gcShare is GC CPU over used (non-idle) CPU between two readings.
func (r runtimeSample) gcShare(prev runtimeSample) float64 {
	used := (r.totalCPU - r.idleCPU) - (prev.totalCPU - prev.idleCPU)
	if used <= 0 {
		return 0
	}
	return (r.gcCPU - prev.gcCPU) / used
}
