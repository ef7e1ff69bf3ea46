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
	if err := p.ValidateShape(); err != nil {
		return Result{}, err
	}

	current := make(Assignment, len(p.Components))
	best, err := p.Evaluate(current)
	if err != nil {
		return Result{}, err
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
					return Result{}, err
				}
				res.Evaluated++
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
			return res, nil
		}
		current[bestComp] = bestVar
		res.Best = bestCand
	}
}
