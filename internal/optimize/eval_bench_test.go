package optimize

import (
	"context"
	"testing"
)

// BenchmarkEvalEngine is the headline incremental-vs-scratch
// comparison on the n=19 benchmark instance: the same full-space
// search, once re-deriving every candidate through Problem.Evaluate
// (the PR 4 engine) and once on the compiled evaluator's amortized-
// O(1) advance. The benchreport suite's eval_incremental_speedup_n19
// ratio — floored at 3x by CI — is this split measured into the
// committed BENCH_*.json trajectory; it is single-threaded on both
// sides, so the win lands on every host including 1-core runners.
func BenchmarkEvalEngine(b *testing.B) {
	p := BenchProblem(19, BenchSLAPercent)
	b.Run("scratch/n=19", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.ExhaustiveScratch(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental/n=19", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.ExhaustiveContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStream compares the streaming enumeration (fold candidates
// online, O(1) memory — a named exhaustive search) against the
// materialized AllContext (every candidate cloned into an O(k^n)
// slice).
func BenchmarkStream(b *testing.B) {
	p := BenchProblem(19, BenchSLAPercent)
	b.Run("stream/n=19", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var res Result
			err := p.StreamContext(context.Background(), func(cur *Cursor) error {
				res.observeCursor(cur, p.SLA)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized/n=19", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.AllContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
