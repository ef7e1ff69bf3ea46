package optimize

// Greedy is the heuristic a practitioner without the paper's framework
// plausibly applies: start from no HA anywhere, and repeatedly apply
// the single upgrade (one component, one variant step) that reduces
// TCO the most, stopping when no single upgrade helps. It runs in
// O(n·k) evaluations per round instead of k^n total — and it is NOT
// exact: penalty economics are non-separable across components (the
// slippage gap is shared), so greedy can stall in local optima. The
// GREEDY experiment quantifies that optimality gap; its existence is
// the justification for the paper's exhaustive/pruned global search.
// It is also the incumbent a budget- or cap-stopped frontier run
// answers with, so it takes any space up to the shape ceiling.
func (p *Problem) Greedy() (Result, error) {
	res, _, err := p.greedy()
	return res, err
}

// greedy is Greedy that also counts the distinct assignments it
// priced. Evaluated counts every evaluation, and a round re-prices
// neighbours of earlier rounds, so on small spaces Evaluated can
// exceed the space; the distinct count never does. Assignments are
// keyed by their mixed-radix index, which fits the shape ceiling.
func (p *Problem) greedy() (Result, int, error) {
	if err := p.ValidateShape(); err != nil {
		return Result{}, 0, err
	}

	n := len(p.Components)
	place := make([]int64, n)
	place[n-1] = 1
	for i := n - 2; i >= 0; i-- {
		place[i] = place[i+1] * int64(len(p.Components[i+1].Variants))
	}
	var index int64
	seen := map[int64]bool{index: true}

	current := make(Assignment, n)
	best, err := p.Evaluate(current)
	if err != nil {
		return Result{}, 0, err
	}
	res := Result{Best: best, Evaluated: 1}
	if best.MeetsSLA(p.SLA) {
		res.BestNoPenalty = best
		res.NoPenaltyFound = true
	}

	for {
		improved := false
		var (
			bestCand Candidate
			bestComp int
			bestVar  int
		)
		for i := range p.Components {
			for v := range p.Components[i].Variants {
				if v == current[i] {
					continue
				}
				trial := current.Clone()
				trial[i] = v
				cand, err := p.Evaluate(trial)
				if err != nil {
					return Result{}, 0, err
				}
				res.Evaluated++
				seen[index+int64(v-current[i])*place[i]] = true
				if cand.MeetsSLA(p.SLA) {
					if !res.NoPenaltyFound || betterNoPenalty(cand, res.BestNoPenalty) {
						res.BestNoPenalty = cand
						res.NoPenaltyFound = true
					}
				}
				if better(cand, res.Best) && (!improved || better(cand, bestCand)) {
					bestCand, bestComp, bestVar = cand, i, v
					improved = true
				}
			}
		}
		if !improved {
			return res, len(seen), nil
		}
		index += int64(bestVar-current[bestComp]) * place[bestComp]
		current[bestComp] = bestVar
		res.Best = bestCand
	}
}
