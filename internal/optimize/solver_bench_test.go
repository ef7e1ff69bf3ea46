package optimize

import (
	"context"
	"testing"
)

// TestSLADenseShape pins the benchmark instances to the regime their
// constants document: on the symmetric shape every assignment with the
// same number of clustered components has the same uptime, so the
// minimal SLA-meeting level is the first rung of that ladder to meet
// the SLA, and C(n, level) minimal assignments meet it.
func TestSLADenseShape(t *testing.T) {
	for _, tc := range []struct {
		n     int
		sla   float64
		level int
	}{
		{19, BenchSLAPercent, 5},
		{19, BenchSLADeepPercent, 8},
		{BenchWideN, BenchSLAWidePercent, 8},
	} {
		p := BenchProblem(tc.n, tc.sla)
		meets := func(level int) bool {
			a := make(Assignment, tc.n)
			for i := 0; i < level; i++ {
				a[i] = 1
			}
			c, err := p.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			return c.MeetsSLA(p.SLA)
		}
		if meets(tc.level-1) || !meets(tc.level) {
			t.Fatalf("n=%d at %v%%: minimal met level is not %d", tc.n, tc.sla, tc.level)
		}
	}
}

// BenchmarkSolverStrategies compares every strategy on the SLA-dense
// n=19 instance (auto resolves to frontier).
func BenchmarkSolverStrategies(b *testing.B) {
	p := BenchProblem(19, BenchSLAPercent)
	for _, strategy := range Strategies() {
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
