package optimize

// Pruned implements the Section III.C search: candidates are evaluated
// level by level — first the baseline, then every permutation with one
// clustered component, then two, and so on. Whenever a permutation
// meets the uptime SLA, all of its supersets (same variant choices plus
// additional clustered components) are clipped from later levels: the
// no-HA baseline is each component's cheapest variant, so any superset
// costs at least as much while its penalty can only stay zero or grow
// above the subset's zero, hence its TCO cannot beat the subset's.
//
// The search is exact: it returns the same optimum as Exhaustive (a
// property the tests check on randomized instances) while evaluating
// fewer candidates whenever the SLA is attainable below the top level.
// It is kept as the paper's reference and for its effort statistics:
// each leaf is checked by a linear scan over the SLA-meeting
// assignments found so far and priced from scratch by Evaluate, so it
// is quadratic where the SLA is met at a low level. No strategy runs
// it; the frontier DP reaches the same answers without enumerating.
func (p *Problem) Pruned() (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	var met []Assignment
	a := make(Assignment, len(p.Components))
	for level := 0; level <= len(p.Components); level++ {
		err := p.walkLevel(a, level, func() error {
			for _, m := range met {
				if coveredBy(m, a) {
					res.Skipped++
					return nil
				}
			}
			c, err := p.Evaluate(a)
			if err != nil {
				return err
			}
			res.observe(c, p.SLA)
			if c.MeetsSLA(p.SLA) {
				met = append(met, c.Assignment)
			}
			return nil
		})
		if err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// walkLevel enumerates every assignment with exactly `level` clustered
// components in lexicographic order, invoking leaf at each one with a
// holding it.
func (p *Problem) walkLevel(a Assignment, level int, leaf func() error) error {
	n := len(p.Components)
	var walk func(idx, remaining int) error
	walk = func(idx, remaining int) error {
		if remaining > n-idx {
			return nil // not enough components left to reach the level
		}
		if idx == n {
			return leaf()
		}

		// Choice 1: leave component idx at the baseline.
		a[idx] = 0
		if err := walk(idx+1, remaining); err != nil {
			return err
		}

		// Choice 2: cluster component idx with each non-baseline variant.
		if remaining > 0 {
			for v := 1; v < len(p.Components[idx].Variants); v++ {
				a[idx] = v
				if err := walk(idx+1, remaining-1); err != nil {
					return err
				}
			}
			a[idx] = 0
		}
		return nil
	}
	return walk(0, level)
}
