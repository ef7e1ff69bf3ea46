package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// mapFolds is a FoldCache over a plain map that records every build:
// like the broker's cache, it stores only folds that built without
// error.
type mapFolds struct {
	folds   map[string]*Fold
	lookups int
	builds  []error
}

func (m *mapFolds) Fold(ctx context.Context, key string, build func(context.Context) (*Fold, error)) (*Fold, error) {
	m.lookups++
	if f, ok := m.folds[key]; ok {
		return f, nil
	}
	f, err := build(ctx)
	m.builds = append(m.builds, err)
	if err != nil {
		return nil, err
	}
	if m.folds == nil {
		m.folds = make(map[string]*Fold)
	}
	m.folds[key] = f
	return f, nil
}

// TestFoldCacheNeverStoresStoppedFolds: a fold the state cap or a
// cancellation stops comes back as an error, never as a fold a cache
// could store; budgeted and lexicographic runs never consult the
// cache at all.
func TestFoldCacheNeverStoresStoppedFolds(t *testing.T) {
	folds := &mapFolds{}
	ctx := WithFoldCache(context.Background(), folds)
	p := BenchProblem(12, BenchSLAPercent)

	for _, cfg := range []SolverConfig{
		{Budget: Budget{MaxEvaluations: 1}},
		{Budget: Budget{Wall: time.Minute}},
		{Strategy: StrategyExhaustive},
		{Strategy: StrategyPruned},
	} {
		if _, err := SolvePresentation(ctx, p, cfg); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
	if _, err := SolveConfig(ctx, p, SolverConfig{}); err != nil {
		t.Fatal(err)
	}
	if folds.lookups != 0 {
		t.Fatalf("budgeted, named and lexicographic runs made %d fold lookups, want 0", folds.lookups)
	}

	func() {
		defer func(was int) { maxFrontierStates = was }(maxFrontierStates)
		maxFrontierStates = 2
		res, err := SolvePresentation(ctx, p, SolverConfig{})
		if err != nil || !res.Approximate || res.BudgetExhausted {
			t.Fatalf("capped run: %+v, %v; want greedy's certified incumbent", res, err)
		}
		if _, err := p.ParetoContext(ctx); !errors.Is(err, ErrFrontierStateCap) {
			t.Fatalf("capped ParetoContext = %v, want ErrFrontierStateCap", err)
		}
	}()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cctx = WithProgress(cctx, func(int64, int64) { cancel() })
	if _, err := SolvePresentation(cctx, BenchProblem(19, BenchSLAPercent), SolverConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}

	if len(folds.folds) != 0 {
		t.Fatalf("stopped folds were stored: %d entries", len(folds.folds))
	}
	want := []error{ErrFrontierStateCap, ErrFrontierStateCap, context.Canceled}
	if len(folds.builds) != len(want) {
		t.Fatalf("builds = %v, want %v", folds.builds, want)
	}
	for i, err := range folds.builds {
		if !errors.Is(err, want[i]) {
			t.Fatalf("build %d = %v, want %v", i, err, want[i])
		}
	}
}

// fuzzBytes hands out a fuzz input byte by byte, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// decodeFoldCase builds a small heterogeneous problem (n ≤ 8, k ≤ 3,
// costs on a $50 grid so ties are common) under one SLA term, a
// second term, and a flat variant index and a bit position for the
// key-sensitivity checks, all from fuzz bytes.
func decodeFoldCase(data []byte) (p *Problem, other cost.SLA, variant, bit int) {
	in := fuzzBytes(data)
	comps := make([]ComponentChoices, 1+in.next()%8)
	for i := range comps {
		k := 1 + in.next()%3
		active := 1 + in.next()%3
		down := 0.001 + float64(in.next())/255*0.05
		perYear := float64(in.next() % 12)
		base := cost.Dollars(float64(25 * (in.next() % 4)))
		variants := []Variant{{
			Label:       "none",
			Cluster:     availability.Cluster{Name: "c", Nodes: active, NodeDown: down, FailuresPerYear: perYear},
			MonthlyCost: base,
		}}
		for v := 1; v < k; v++ {
			standby := 1 + in.next()%2
			variants = append(variants, Variant{
				Label: fmt.Sprintf("ha%d", v),
				Cluster: availability.Cluster{
					Name: "c", Nodes: active + standby, Tolerated: standby, NodeDown: down,
					FailuresPerYear: perYear, Failover: time.Duration(5+2*in.next()) * time.Second,
				},
				MonthlyCost: base + cost.Dollars(float64(50*(in.next()%8))),
			})
		}
		comps[i] = ComponentChoices{Name: fmt.Sprintf("c%d", i), Variants: variants}
	}
	term := func() cost.SLA {
		return cost.SLA{
			UptimePercent: 90 + float64(in.next()%100)/10,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(float64(1 + 4*in.next()))},
		}
	}
	p = &Problem{Components: comps, SLA: term()}
	return p, term(), in.next(), in.next()
}

// FuzzFoldReprice fuzzes the fold cache's contract on small random
// problems: a fold built under one term and priced under another
// equals a fresh SolvePresentation and a fresh ParetoContext under the
// second — assignments, uptimes, TCOs and effort statistics — and the
// fold's key moves with any one variant's cost or any one bit of its
// ClusterTerms, but not with the term.
func FuzzFoldReprice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x01\x00\x40\x03\x01\x00\x10\x02\x02\x01\x80\x07\x00\x33\x05\x05\x50\x20\x63\x90\x04\x11"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, b, variant, bit := decodeFoldCase(data)
		if err := p.ValidateShape(); err != nil {
			t.Skip(err)
		}
		folds := &mapFolds{}
		ctx := WithFoldCache(context.Background(), folds)
		if _, err := SolvePresentation(ctx, p, SolverConfig{}); err != nil {
			t.Fatal(err)
		}

		pb := *p
		pb.SLA = b
		got, err := SolvePresentation(ctx, &pb, SolverConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolvePresentation(context.Background(), &pb, SolverConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("repriced answer diverges:\n  cached %+v\n  fresh  %+v", got, want)
		}
		gotFront, err := pb.ParetoContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantFront, err := pb.ParetoContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFront, wantFront) {
			t.Fatalf("repriced frontier diverges:\n  cached %+v\n  fresh  %+v", gotFront, wantFront)
		}
		if len(folds.builds) != 1 || folds.lookups != 3 {
			t.Fatalf("%d builds in %d lookups, want 1 build for 3 lookups", len(folds.builds), folds.lookups)
		}

		ev := compileEvaluator(p)
		key := ev.foldKey()
		if compileEvaluator(&pb).foldKey() != key {
			t.Fatal("the term moved the fold key")
		}
		j := variant % len(ev.costs)
		ev.costs[j]++
		if ev.foldKey() == key {
			t.Fatalf("variant %d's cost moved but the key did not", j)
		}
		ev.costs[j]--
		terms := &ev.terms[j]
		for i, field := range []*float64{&terms.Up, &terms.ActiveUp, &terms.Failover} {
			was := *field
			*field = math.Float64frombits(math.Float64bits(was) ^ 1<<(bit%64))
			if ev.foldKey() == key {
				t.Fatalf("bit %d of term %d of variant %d moved but the key did not", bit%64, i, j)
			}
			*field = was
		}
	})
}
