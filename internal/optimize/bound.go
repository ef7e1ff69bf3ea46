package optimize

import (
	"math"
	"sort"

	"uptimebroker/internal/cost"
)

// A budget- or cap-stopped frontier run certifies its incumbent
// against one relaxation: drop the coupling between components and
// track the Pareto frontier of (HA cost, up-probability product) pairs
// reachable by any assignment. Two facts make the bound admissible.
// First, a system's uptime never exceeds the product of its clusters'
// up-probabilities, so a frontier point's up value upper-bounds the
// uptime of every assignment it stands for. Second, both TCO terms are
// monotone — HA cost grows with spend, expected penalty shrinks as
// uptime rises — so evaluating the TCO formula at a point that is
// cheaper and more reliable than a real assignment can only come out
// lower than the assignment's true TCO.

// boundPoint is one frontier point: the cheapest HA cost at which an
// up-probability product of at least up is reachable.
type boundPoint struct {
	cost int64
	up   float64
}

// maxBoundFrontier caps the relaxed frontier. Past the cap, runs of
// consecutive points collapse into a single dominating point (the
// run's cheapest cost with the run's best up), which keeps the bound
// admissible at the price of some tightness. Symmetric instances never
// get near the cap (their frontier has one point per spend level);
// heterogeneous ones degrade gracefully.
const maxBoundFrontier = 256

// relaxedFrontier folds the components one at a time into the
// relaxed frontier. Each exact (cost, up-product) pair reachable by an
// assignment is dominated by some kept point — cost no higher, up no
// lower — by induction over the merge.
func (p *Problem) relaxedFrontier() []boundPoint {
	front := []boundPoint{{cost: 0, up: 1}}
	for _, comp := range p.Components {
		merged := make([]boundPoint, 0, len(front)*len(comp.Variants))
		for _, v := range comp.Variants {
			c := int64(v.MonthlyCost)
			up := v.Cluster.UpProbability()
			for _, pt := range front {
				merged = append(merged, boundPoint{cost: pt.cost + c, up: pt.up * up})
			}
		}
		front = thinFrontier(merged)
	}
	return front
}

// thinFrontier sorts by cost, drops dominated points (up must strictly
// improve as cost grows), and conservatively merges down to
// maxBoundFrontier. The result is ascending in both cost and up.
func thinFrontier(pts []boundPoint) []boundPoint {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].cost != pts[j].cost {
			return pts[i].cost < pts[j].cost
		}
		return pts[i].up > pts[j].up
	})
	out := pts[:0]
	bestUp := math.Inf(-1)
	for _, pt := range pts {
		if pt.up > bestUp {
			out = append(out, pt)
			bestUp = pt.up
		}
	}
	if len(out) <= maxBoundFrontier {
		return out
	}
	stride := (len(out) + maxBoundFrontier - 1) / maxBoundFrontier
	thinned := make([]boundPoint, 0, maxBoundFrontier)
	for s := 0; s < len(out); s += stride {
		e := s + stride
		if e > len(out) {
			e = len(out)
		}
		// Cheapest cost of the run, best up of the run: dominates every
		// point it replaces.
		thinned = append(thinned, boundPoint{cost: out[s].cost, up: out[e-1].up})
	}
	return thinned
}

// rootLowerBound is a certified admissible lower bound on the optimal
// TCO over the whole space, computed in O(n · k · frontier): the TCO
// formula at each relaxed frontier point, minimized. Every real
// assignment is dominated by some point, and TCO is monotone in
// (cost, uptime), so no assignment beats the minimum.
func (p *Problem) rootLowerBound() cost.Money {
	best := cost.Money(math.MaxInt64)
	for _, pt := range p.relaxedFrontier() {
		if t := cost.Compute(cost.Money(pt.cost), p.SLA, min(pt.up, 1)).Total(); t < best {
			best = t
		}
	}
	return best
}
