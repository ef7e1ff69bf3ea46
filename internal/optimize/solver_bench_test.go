package optimize

import (
	"context"
	"testing"
)

// slaDenseProblem is the adversarial shape ROADMAP recorded
// minutes-long searches on: n symmetric two-choice components with the
// SLA attainable at a low level, so the met list holds thousands of
// minimal SLA-meeting assignments and every higher-level leaf pays a
// superset check against them. At n=19 / SLA 94.4% the minimal met
// level is 5 — C(19,5) = 11628 met assignments against 2^19 leaves;
// tightening the SLA further steepens the linear scan's quadratic cost
// while the trie lookup stays near-flat. The builder lives in
// benchshape.go (BenchProblem) so cmd/benchreport measures the same
// instance.
func slaDenseProblem(n int, slaPercent float64) *Problem {
	return BenchProblem(n, slaPercent)
}

// TestSLADenseShape pins the benchmark instance to the regime it
// claims to measure: pruning bites on most of the space and the met
// set is large enough that the linear scan's quadratic cost shows.
func TestSLADenseShape(t *testing.T) {
	p := slaDenseProblem(19, benchSLA)
	res, err := p.Pruned()
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped < p.SpaceSize()/2 {
		t.Fatalf("instance is not SLA-dense: only %d of %d skipped", res.Skipped, p.SpaceSize())
	}
	// The cheaper 93.6% variant (met level 3) keeps the indexed-vs-
	// linear accounting pin fast; density-independence of the
	// equivalence itself is covered by the randomized solver tests.
	q := slaDenseProblem(19, 93.6)
	idx, err := q.PrunedContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lin, err := q.prunedLinear(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lin.Evaluated != idx.Evaluated || lin.Skipped != idx.Skipped {
		t.Fatalf("indexed (%d, %d) != linear (%d, %d) on the benchmark shape",
			idx.Evaluated, idx.Skipped, lin.Evaluated, lin.Skipped)
	}
}

// benchSLA is the benchmark instance's uptime target: minimal met
// level 5 on the n=19 shape.
const benchSLA = BenchSLAPercent

// BenchmarkSupersetPruning is the headline comparison: the superset
// index implementations against each other and the original linear
// met scan on the SLA-dense n=19 instance. "flat" is the arena trie
// with checkpoint resume disabled, "checkpointed" the production
// index — the gap between them is the changed-suffix amortization,
// the gap from "pointer" to either is the arena layout.
func BenchmarkSupersetPruning(b *testing.B) {
	p := slaDenseProblem(19, benchSLA)
	run := func(name string, search func(context.Context) (Result, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("checkpointed", p.PrunedContext)
	run("flat", p.PrunedFlatRescan)
	run("pointer", p.PrunedPointerTrie)
	run("linear", p.prunedLinear)
}

// BenchmarkSupersetPruningDeep is BenchmarkSupersetPruning on the
// denser adversarial shape (minimal met level 8, C(19,8) = 75582 met
// assignments): a deeper, ~6.5x wider trie where lookups dominate the
// level walk even harder.
func BenchmarkSupersetPruningDeep(b *testing.B) {
	p := slaDenseProblem(19, BenchSLADeepPercent)
	run := func(name string, search func(context.Context) (Result, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := search(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("checkpointed", p.PrunedContext)
	run("flat", p.PrunedFlatRescan)
	run("pointer", p.PrunedPointerTrie)
}

// BenchmarkSolverStrategies compares every strategy on the same
// SLA-dense instance (auto resolves per its heuristic).
func BenchmarkSolverStrategies(b *testing.B) {
	p := slaDenseProblem(19, benchSLA)
	for _, strategy := range []string{
		StrategyExhaustive, StrategyPruned, StrategyFrontier, StrategyAuto,
	} {
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(context.Background(), p, strategy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
