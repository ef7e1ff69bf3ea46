package optimize

import (
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/cost"
)

// BenchSLAPercent is the canonical SLA for the n=19 benchmark
// instance: minimal met level 5, so the met set holds C(19,5) = 11628
// assignments and superset pruning is exercised in the dense regime
// the trie index was built for.
const BenchSLAPercent = 94.4

// BenchSLADeepPercent is the denser adversarial variant of the same
// instance: 95.4% sits between the level-7 (95.291%) and level-8
// (95.672%) uptime rungs of the symmetric n=19 ladder, so the minimal
// met level is 8 — C(19,8) = 75582 met assignments, a ~6.5x larger
// superset index than BenchSLAPercent's, with every level above 8
// clipped through it. It stresses cover lookups against a deep, wide
// trie where checkpointed suffix walks matter most.
const BenchSLADeepPercent = 95.4

// BenchSLAWidePercent is the SLA for the n=30 wide instance: a 2^30
// space the enumerating strategies refuse outright (MaxCandidates is
// 2^26), so only frontier answers it. 91.4% sits between the level-7
// (≈91.18%) and level-8 (≈91.55%) uptime rungs of the symmetric n=30
// ladder, so the minimal met level is 8 — the met set holds C(30,8) ≈
// 5.85M assignments, the SLA-dense regime the wide-shape gate (an
// exact answer within a 500ms budget) is measured on.
const BenchSLAWidePercent = 91.4

// BenchWideN is the component count of the wide instance.
const BenchWideN = 30

// BenchProblem builds the canonical benchmark instance shared by this
// package's benchmarks and the benchreport suite: n symmetric
// components with one no-HA baseline and one two-node HA variant
// each, under a slippage-penalty SLA. It lives outside the test files
// so cmd/benchreport measures exactly the shape the in-repo
// benchmarks (and the committed BENCH_*.json trajectory) refer to.
func BenchProblem(n int, slaPercent float64) *Problem {
	comps := make([]ComponentChoices, n)
	for i := range comps {
		comps[i] = ComponentChoices{
			Name: "c",
			Variants: []Variant{
				{
					Label:   "none",
					Cluster: availability.Cluster{Name: "c", Nodes: 1, NodeDown: 0.004, FailuresPerYear: 4},
				},
				{
					Label: "ha",
					Cluster: availability.Cluster{
						Name: "c", Nodes: 2, Tolerated: 1, NodeDown: 0.004,
						FailuresPerYear: 4, Failover: 30 * time.Second,
					},
					MonthlyCost: cost.Dollars(250),
				},
			},
		}
	}
	return &Problem{
		Components: comps,
		SLA:        cost.SLA{UptimePercent: slaPercent, Penalty: cost.Penalty{PerHour: cost.Dollars(200)}},
	}
}
