package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/scenario"
	"uptimebroker/internal/topology"
)

// opKind is the route an operation drives.
type opKind int

const (
	opRecommend opKind = iota // POST /v2/recommendations
	opPareto                  // POST /v2/pareto
	opJob                     // POST /v2/jobs, its event stream, then GET /v2/jobs/{id}
	opObserve                 // POST /v2/observations
)

func (k opKind) String() string {
	return [...]string{"recommend", "pareto", "job", "observe"}[k]
}

// op is one generated request. The body is the exact wire payload;
// shape is the component count of a symmetric request (whose answer
// has a closed form) and 0 for a scenario request (checked against
// an exhaustive in-process engine).
type op struct {
	kind  opKind
	class string
	shape int
	body  []byte
}

// class is one stratum of a workload's op mix. Shares are fixed per
// run (rounded once, not drawn), so every seed sends the same number
// of ops of each class, and the shares keep percentiles away from the
// seed-dependent edge between two classes.
type class struct {
	name  string
	share float64
	gen   func(g *generator) op
}

// workload is one traffic mix against a single brokerd.
type workload struct {
	name string

	// callers is the number of closed-loop load-generator threads,
	// each with its own connection (job ops use a second one for the
	// event stream).
	callers int

	// rate is the nominal ops per second that sizes a run: a run sends
	// exactly rate × seconds ops, so state that grows with completed
	// work (cache residency, retained jobs, WAL size) is the same in
	// every run however fast the program is.
	rate float64

	// tail is the upper latency percentile reported; the op count
	// leaves at least minBeyond samples above it at every run length.
	tail float64

	classes []class

	// observeEvery places one telemetry observation after every that
	// many ops (0: none).
	observeEvery int

	// warmup builds the ops that end set-up; journal builds the jobs a
	// durable workload recovers at start (nil: none).
	warmup  func(g *generator) []op
	journal func(g *generator) []op

	// setups is how many times a run starts brokerd and warms it up;
	// setup_s is the median.
	setups int

	// probeOps is how many timed ops the traced run replays
	// in-process, per class in proportion to the shares.
	probeOps int
}

// opCount sizes a run: rate × seconds ops, but never so few that the
// tail percentile has under minBeyond samples above it.
func (w *workload) opCount(seconds int) int {
	n := int(math.Round(w.rate * float64(seconds)))
	floor := int(math.Ceil(float64(minBeyond) / (1 - w.tail) * 1.2))
	return max(n, floor)
}

// Symmetric shape sizes.
const (
	wideN30     = 30
	jobsWideN   = 10
	anytimeWall = 500 // ms, the anytime probe's budget
)

// Probe constants shared by the workloads.
const (
	cacheBytes      = 64 << 20 // brokerd -cache-bytes
	exposureSeconds = 60       // per observation, far below the one node-year an estimate needs
)

var workloads = []*workload{
	// The paper's own traffic: paper-sized spaces, mostly cache hits,
	// so request decode/encode and the cache hit path carry it. One
	// caller keeps the generator and brokerd within two cores, and the
	// tail is p90: a p99 of millisecond ops lands on the 1% of them
	// that a virtual machine's hypervisor happened to deschedule.
	{
		name:         "paper-mix",
		callers:      1,
		rate:         800,
		tail:         0.90,
		observeEvery: 1000,
		classes: []class{
			{"key", 0.9, (*generator).paperKey},
			{"fresh", 0.1, (*generator).paperFresh},
		},
		warmup: func(g *generator) []op { return g.paperKeys() },
		setups: 5,
		// The hot path is microseconds, so a large sample costs little.
		probeOps: 120,
	},
	// Every op misses and answers megabytes of cards, so card building,
	// encode, client decode and GC carry it; the cache only inserts.
	{
		name:    "wide-miss",
		callers: 1,
		rate:    12,
		tail:    0.90,
		classes: []class{
			{"n=11", 0.20, wideGen(11)},
			{"n=12", 0.40, wideGen(12)},
			{"n=13", 0.25, wideGen(13)},
			{"n=14", 0.15, wideGen(14)},
		},
		warmup:   func(g *generator) []op { return g.sample([]int{11, 12, 12, 13, 14}, (*generator).wideRecommend) },
		setups:   3,
		probeOps: 10,
	},
	// The streaming frontier pass prices 2^16-2^18 candidates but
	// returns n+1 cards, so the optimize evaluator carries it: the one
	// workload where a search-layer change moves an end-to-end number.
	{
		name:    "search-wide",
		callers: 1,
		rate:    150,
		tail:    0.90,
		classes: []class{
			{"n=16", 0.40, paretoGen(16)},
			{"n=17", 0.35, paretoGen(17)},
			{"n=18", 0.25, paretoGen(18)},
		},
		warmup:   func(g *generator) []op { return g.sample(repeatEach(8, 16, 17, 18), (*generator).widePareto) },
		setups:   5,
		probeOps: 12,
	},
	// The only workload that writes: each job journals its lifecycle
	// and result through group-commit fsync, and set-up replays the
	// journal, so the jobs and jobstore layers carry it.
	{
		name:    "jobs-durable",
		callers: 1,
		rate:    45,
		tail:    0.90,
		// 40/60 rather than half and half keeps the median inside the
		// n=10 class instead of on the seed-dependent edge between the
		// two classes.
		classes: []class{
			{"paper", 0.4, (*generator).jobPaper},
			{"n=10", 0.6, (*generator).jobWide},
		},
		warmup:   func(g *generator) []op { return g.jobMix(8) },
		journal:  func(g *generator) []op { return g.jobMix(120) },
		setups:   3,
		probeOps: 16,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (choose from %v)", name, names)
}

// schedule is everything a run sends, derived from the seed alone.
type schedule struct {
	journal []op // jobs recovered at every set-up (untimed)
	warmup  []op // the end of every set-up (untimed)
	timed   []op
}

// buildSchedule derives a run's ops from its seed and length. Each
// phase draws from its own stream, so the timed ops do not shift when
// a warm-up changes.
func buildSchedule(w *workload, seed int64, seconds int) schedule {
	var s schedule
	if w.journal != nil {
		s.journal = w.journal(newGenerator(seed, 1))
	}
	s.warmup = w.warmup(newGenerator(seed, 2))

	g := newGenerator(seed, 3)
	var ops []op
	for _, i := range interleave(classCounts(w.classes, w.opCount(seconds))) {
		o := w.classes[i].gen(g)
		o.class = w.classes[i].name
		ops = append(ops, o)
	}
	if w.observeEvery > 0 {
		// Observations sit at fixed positions, so each run sees the
		// same number of parameter-epoch bumps at the same spacing.
		var out []op
		for i, o := range ops {
			out = append(out, o)
			if (i+1)%w.observeEvery == 0 {
				out = append(out, g.observation())
			}
		}
		ops = out
	}
	s.timed = ops
	return s
}

// interleave orders a run's classes: each step takes the class
// furthest behind its share, so classes are spread evenly and every
// seed sends them in the same order. The seed varies the requests
// only; an order drawn per seed would move the cache, GC and peak-RSS
// timeline from run to run for no reason the program controls.
func interleave(counts []int) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	sent := make([]int, len(counts))
	out := make([]int, 0, total)
	for t := 1; t <= total; t++ {
		best, bestLag := -1, 0.0
		for i, c := range counts {
			lag := float64(c*t)/float64(total) - float64(sent[i])
			if sent[i] < c && (best < 0 || lag > bestLag) {
				best, bestLag = i, lag
			}
		}
		sent[best]++
		out = append(out, best)
	}
	return out
}

// classCounts splits n ops over the classes by largest remainder.
func classCounts(classes []class, n int) []int {
	counts := make([]int, len(classes))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(classes))
	total := 0
	for i, c := range classes {
		exact := c.share * float64(n)
		counts[i] = int(exact)
		total += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; total < n; k++ {
		counts[rems[k%len(rems)].i]++
		total++
	}
	return counts
}

// generator draws request terms from one seeded stream and never
// hands out the same fresh terms twice.
type generator struct {
	rng   *rand.Rand
	used  map[string]bool
	pairs []scenario.Scenario
}

func newGenerator(seed int64, stream int64) *generator {
	return &generator{
		rng:   rand.New(rand.NewSource(seed*7919 + stream)),
		used:  map[string]bool{},
		pairs: scenarioPairs(),
	}
}

// scenarioPairs is the 13 built-in scenario × provider pairs: every
// provider-parameterized scenario on each catalog provider, plus the
// provider-fixed case study once.
func scenarioPairs() []scenario.Scenario {
	var out []scenario.Scenario
	for _, p := range []string{catalog.ProviderSoftLayerSim, catalog.ProviderNimbus, catalog.ProviderStratus} {
		for _, sc := range scenario.All(p) {
			if sc.Name == "casestudy" {
				continue
			}
			out = append(out, sc)
		}
	}
	return append(out, scenario.PaperCaseStudy())
}

// The paper-mix SLA grid. 98% at $100/h is the case study's own terms.
var (
	gridSLA     = []float64{95, 98, 99, 99.5}
	gridPenalty = []float64{40, 100, 250}
)

// paperKeys is the 156 repeated keys, in a fixed order.
func (g *generator) paperKeys() []op {
	var out []op
	for _, sc := range g.pairs {
		for _, sla := range gridSLA {
			for _, pen := range gridPenalty {
				out = append(out, op{kind: opRecommend, class: "key", body: mustJSON(scenarioWire(sc.Request, sla, pen))})
			}
		}
	}
	return out
}

func (g *generator) paperKey() op {
	sc := g.pairs[g.rng.Intn(len(g.pairs))]
	sla := gridSLA[g.rng.Intn(len(gridSLA))]
	pen := gridPenalty[g.rng.Intn(len(gridPenalty))]
	return op{kind: opRecommend, body: mustJSON(scenarioWire(sc.Request, sla, pen))}
}

func (g *generator) paperFresh() op {
	return op{kind: opRecommend, body: mustJSON(g.freshScenario())}
}

func (g *generator) freshScenario() httpapi.RecommendationRequest {
	sc := g.pairs[g.rng.Intn(len(g.pairs))]
	sla, pen := g.freshTerms(sc.Name + sc.Request.Base.Provider)
	return scenarioWire(sc.Request, sla, pen)
}

// freshTerms draws SLA terms no earlier op of this generator used for
// the same shape. Six decimals keep them off the paper grid.
func (g *generator) freshTerms(shape string) (slaPercent, penaltyUSD float64) {
	for {
		slaPercent = math.Round((95+g.rng.Float64()*4.9)*1e6) / 1e6
		penaltyUSD = float64(4000+g.rng.Intn(46000)) / 100
		key := fmt.Sprintf("%s|%v|%v", shape, slaPercent, penaltyUSD)
		if !g.used[key] {
			g.used[key] = true
			return
		}
	}
}

func wideGen(n int) func(g *generator) op {
	return func(g *generator) op { return g.wideRecommend(n) }
}

func paretoGen(n int) func(g *generator) op {
	return func(g *generator) op { return g.widePareto(n) }
}

func (g *generator) wideRecommend(n int) op {
	return op{kind: opRecommend, shape: n, body: mustJSON(g.freshWide(n))}
}

func (g *generator) widePareto(n int) op {
	return op{kind: opPareto, shape: n, body: mustJSON(g.freshWide(n))}
}

func (g *generator) freshWide(n int) httpapi.RecommendationRequest {
	sla, pen := g.freshTerms(fmt.Sprintf("wide%d", n))
	return symmetricWire(n, sla, pen)
}

func (g *generator) jobPaper() op {
	return op{kind: opJob, class: "paper", body: mustJSON(httpapi.JobRequest{Kind: httpapi.JobKindRecommend, Request: g.freshScenario()})}
}

func (g *generator) jobWide() op {
	return op{kind: opJob, class: "n=10", shape: jobsWideN, body: mustJSON(httpapi.JobRequest{Kind: httpapi.JobKindRecommend, Request: g.freshWide(jobsWideN)})}
}

func (g *generator) observation() op {
	return op{kind: opObserve, class: "observe", body: mustJSON(httpapi.Observation{
		Provider: catalog.ProviderSoftLayerSim,
		Class:    topology.ClassVirtualMachine,
		Kind:     httpapi.ObservationExposure,
		Seconds:  exposureSeconds,
	})}
}

func (g *generator) sample(shapes []int, gen func(*generator, int) op) []op {
	out := make([]op, len(shapes))
	for i, n := range shapes {
		out[i] = gen(g, n)
		out[i].class = fmt.Sprintf("n=%d", n)
	}
	return out
}

// repeatEach lists each size count times.
func repeatEach(count int, sizes ...int) []int {
	var out []int
	for _, n := range sizes {
		for range count {
			out = append(out, n)
		}
	}
	return out
}

// jobMix alternates paper-sized and n=10 jobs.
func (g *generator) jobMix(count int) []op {
	out := make([]op, count)
	for i := range out {
		if i%2 == 0 {
			out[i] = g.jobPaper()
		} else {
			out[i] = g.jobWide()
		}
	}
	return out
}

// scenarioWire is a scenario request on the given SLA terms.
func scenarioWire(req broker.Request, slaPercent, penaltyUSD float64) httpapi.RecommendationRequest {
	w := httpapi.RecommendationRequest{
		Base:              req.Base,
		SLAPercent:        slaPercent,
		PenaltyPerHourUSD: penaltyUSD,
		AllowedTechs:      req.AllowedTechs,
	}
	if req.AsIs != nil {
		w.AsIs = map[string]string(req.AsIs)
	}
	return w
}

// symmetricWire is the restricted symmetric compute shape: n identical
// single-node compute components, each allowed only ESX-style HA, so
// the space is 2^n and every assignment on a level prices alike.
func symmetricWire(n int, slaPercent, penaltyUSD float64) httpapi.RecommendationRequest {
	comps := make([]topology.Component, n)
	allowed := make(map[string][]string, n)
	for i := range comps {
		name := fmt.Sprintf("c%02d", i)
		comps[i] = topology.Component{Name: name, Layer: topology.LayerCompute, ActiveNodes: 1}
		allowed[name] = []string{catalog.TechESXHA}
	}
	return httpapi.RecommendationRequest{
		Base: topology.System{
			Name:       fmt.Sprintf("symmetric-%d", n),
			Provider:   catalog.ProviderSoftLayerSim,
			Components: comps,
		},
		SLAPercent:        slaPercent,
		PenaltyPerHourUSD: penaltyUSD,
		AllowedTechs:      allowed,
	}
}

// anytimeWire is the n=30 symmetric request on the anytime lane: the
// beam strategy under a 500 ms wall budget.
func anytimeWire() httpapi.RecommendationRequest {
	w := symmetricWire(wideN30, 98, 100)
	w.Solver = &httpapi.SolverConfigDTO{Strategy: "beam", BudgetMS: anytimeWall}
	return w
}

// wireRequest decodes an op body into the recommendation request the
// server will see (a job body's embedded request).
func wireRequest(o op) (httpapi.RecommendationRequest, error) {
	if o.kind == opJob {
		var j httpapi.JobRequest
		err := json.Unmarshal(o.body, &j)
		return j.Request, err
	}
	var r httpapi.RecommendationRequest
	err := json.Unmarshal(o.body, &r)
	return r, err
}

// caseStudyTerms reports whether a wire request is the paper's case
// study on its own terms.
func caseStudyTerms(r httpapi.RecommendationRequest) bool {
	cs := broker.CaseStudy()
	return r.Base.Name == cs.Base.Name && r.Base.Provider == cs.Base.Provider && len(r.AsIs) > 0 &&
		r.SLAPercent == cs.SLA.UptimePercent && cost.Dollars(r.PenaltyPerHourUSD) == cs.SLA.Penalty.PerHour
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated requests are plain structs
	}
	return b
}
