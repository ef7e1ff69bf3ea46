package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/optimize"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := buildSchedule(w, 7, 2)
		b := buildSchedule(w, 7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 built two different schedules", w.name)
		}
		c := buildSchedule(w, 8, 2)
		if reflect.DeepEqual(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 built the same timed ops", w.name)
		}
	}
}

func TestScheduleHoldsItsClassShares(t *testing.T) {
	for _, w := range workloads {
		s := buildSchedule(w, 1, 3)
		got := map[string]int{}
		for _, o := range s.timed {
			got[o.class]++
		}
		n := w.opCount(3)
		for i, want := range classCounts(w.classes, n) {
			if c := w.classes[i].name; got[c] != want {
				t.Errorf("%s: %d %s ops, want %d", w.name, got[c], c, want)
			}
		}
		if w.observeEvery > 0 && got["observe"] != n/w.observeEvery {
			t.Errorf("%s: %d observations over %d ops, want one per %d", w.name, got["observe"], n, w.observeEvery)
		}
		// Seeds change the requests, never the order of the classes.
		other := buildSchedule(w, 2, 3)
		for i, o := range s.timed {
			if other.timed[i].class != o.class {
				t.Errorf("%s: op %d is %s under seed 1 but %s under seed 2", w.name, i, o.class, other.timed[i].class)
				break
			}
		}
	}
}

func TestEveryRunSupportsItsTailPercentile(t *testing.T) {
	for _, w := range workloads {
		n := w.opCount(1)
		if _, beyond, ok := newLatencies(make([]float64, n), 0, 0).percentile(w.tail); !ok {
			t.Errorf("%s: a 1s run has %d ops, only %d beyond %s", w.name, n, beyond, percentileName(w.tail))
		}
	}
}

func TestPercentileRanksFailuresSlowest(t *testing.T) {
	var ok []float64
	for i := 90; i >= 1; i-- {
		ok = append(ok, float64(i))
	}
	l := newLatencies(ok, 10, 1e6)
	if v, _, _ := l.percentile(0.5); v != 50 {
		t.Errorf("p50 = %v, want 50", v)
	}
	if v, beyond, good := l.percentile(0.9); v != 90 || beyond != 10 || !good {
		t.Errorf("p90 = %v with %d beyond (supported %v), want 90 with 10 beyond", v, beyond, good)
	}
	// Past the last success every rank is a failure, and a tail with
	// fewer than ten samples beyond it is not supported.
	if v, beyond, good := l.percentile(0.95); v != 1e6 || beyond != 5 || good {
		t.Errorf("p95 = %v with %d beyond (supported %v), want the failure value with 5 beyond, unsupported", v, beyond, good)
	}
	if _, _, good := newLatencies(ok[:50], 0, 0).percentile(0.9); good {
		t.Error("p90 of 50 samples reported as supported")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestRunStopsAtItsOpCount(t *testing.T) {
	ops := make([]op, 37)
	var calls atomic.Int64
	outs, _ := runClosedLoop(ops, 2, time.Now().Add(time.Minute), func(_ *bytes.Buffer, i int) outcome {
		calls.Add(1)
		return outcome{ok: true, latMS: float64(i)}
	})
	if calls.Load() != 37 || len(outs) != 37 {
		t.Fatalf("%d calls, %d outcomes; want 37 of each", calls.Load(), len(outs))
	}
	for i, o := range outs {
		if !o.ok || o.latMS != float64(i) {
			t.Fatalf("outcome %d = %+v, want its own op's", i, o)
		}
	}

	// Past the deadline nothing more is sent; the rest count as failed.
	outs, _ = runClosedLoop(ops, 2, time.Now().Add(-time.Second), func(*bytes.Buffer, int) outcome {
		t.Error("sent an op past the deadline")
		return outcome{}
	})
	for _, o := range outs {
		if o.ok || o.err == "" {
			t.Fatalf("unsent op reported as %+v", o)
		}
	}
}

func TestClosedFormMatchesTheExhaustiveEngine(t *testing.T) {
	or, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(1, 9)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			sla, pen := g.freshTerms(fmt.Sprint(n))
			wire := symmetricWire(n, sla, pen)
			req := wire.ToBroker()
			req.Solver = optimize.SolverConfig{Strategy: optimize.StrategyExhaustive}

			rec, err := or.engine.Recommend(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			o := op{kind: opRecommend, shape: n, body: mustJSON(wire)}
			if err := or.check(o, summarize(httpapi.FromRecommendation(rec))); err != nil {
				t.Errorf("n=%d sla=%v penalty=%v: recommendation: %v", n, sla, pen, err)
			}

			front, err := or.engine.Pareto(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			o.kind = opPareto
			if err := or.check(o, summarizeFront(httpapi.FromRecommendation(&broker.Recommendation{Cards: front}).Cards)); err != nil {
				t.Errorf("n=%d sla=%v penalty=%v: frontier: %v", n, sla, pen, err)
			}
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	or, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	o := op{kind: opRecommend, shape: 8, body: mustJSON(symmetricWire(8, 98.5, 120))}
	want, err := or.expect(o)
	if err != nil {
		t.Fatal(err)
	}
	wrongLevel := *want.ans
	wrongLevel.best = want.levelStart[levelOf(want.levelStart, want.ans.best)+1] + 1
	wrongTCO := *want.ans
	wrongTCO.bestTCO *= 1.001
	certified := *want.ans
	certified.approximate, certified.bound, certified.gap = true, want.ans.bestTCO*0.99, 0.02
	if err := or.check(o, &certified); err != nil {
		t.Errorf("certified approximate answer rejected: %v", err)
	}
	highBound := certified
	highBound.bound, highBound.gap = want.ans.bestTCO*1.01, 0
	noGap := certified
	noGap.gap = -1 // the wire omits an infinite gap
	noBound := certified
	noBound.bound = 0
	for name, a := range map[string]answer{
		"best on another level":   wrongLevel,
		"best TCO":                wrongTCO,
		"bound above the optimum": highBound,
		"approximate, no gap":     noGap,
		"approximate, no bound":   noBound,
	} {
		if or.check(o, &a) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkCaseStudy(&answer{best: 3, minRisk: 5, savings: 62.1}); err != nil {
		t.Error(err)
	}
	if checkCaseStudy(&answer{best: 4, minRisk: 5, savings: 62.1}) == nil {
		t.Error("case study with best #4 accepted")
	}
}

func TestCaseStudyOnTheOraclesEngine(t *testing.T) {
	or, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCaseStudyInProcess(or); err != nil {
		t.Fatal(err)
	}
}
