package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/failsim"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/topology"
)

// newEngine builds the default brokerage stack.
func newEngine() (*broker.Engine, error) {
	cat := catalog.Default()
	return broker.New(cat, broker.CatalogParams{Catalog: cat})
}

// listCards lists every option card of a request, in option order.
func listCards(engine *broker.Engine, req broker.Request) ([]broker.OptionCard, error) {
	cards, _, err := engine.Cards(context.Background(), req, 0, broker.MaxCards)
	return cards, err
}

func header(title string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("================================================================\n")
}

func newTable() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// runFig1 renders the case-study topology (Figure 1).
func runFig1() error {
	header("FIG1 — Cloud-hosted clustered IaaS architecture of system S")
	req := broker.CaseStudy()
	fmt.Printf("system: %s on %s (serial combination of %d clusters)\n\n",
		req.Base.Name, req.Base.Provider, len(req.Base.Components))
	w := newTable()
	fmt.Fprintln(w, "cluster\tlayer\tclass\tactive nodes\tas-is HA")
	for _, c := range req.Base.Components {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\n",
			c.Name, c.Layer, c.EffectiveClass(), c.ActiveNodes, req.AsIs[c.Name])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nSLA: %.1f%% uptime, penalty $%.0f/hour of slippage\n",
		req.SLA.UptimePercent, req.SLA.Penalty.PerHour.Dollars())
	return nil
}

// runOptions prints the per-option cards (Figures 3–9).
func runOptions() error {
	header("FIG3–FIG9 — Solution options #1..#8 (per-option cards)")
	engine, err := newEngine()
	if err != nil {
		return err
	}
	cards, err := listCards(engine, broker.CaseStudy())
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintln(w, "option\tHA selection\tC_HA/mo\tuptime %\tslip h/mo\tpenalty/mo\tTCO/mo\tmeets SLA")
	for _, c := range cards {
		fmt.Fprintf(w, "#%d\t%s\t%s\t%.4f\t%.2f\t%s\t%s\t%v\n",
			c.Option, c.Label(), c.HACost, c.Uptime*100, c.SlippageHours, c.Penalty, c.TCO, c.MeetsSLA)
	}
	return w.Flush()
}

// runSummary prints the Figure 10 comparison.
func runSummary() error {
	header("FIG10 — Summary of results & resulting cost efficiency")
	engine, err := newEngine()
	if err != nil {
		return err
	}
	rec, err := engine.Recommend(context.Background(), broker.CaseStudy())
	if err != nil {
		return err
	}
	cards, err := listCards(engine, broker.CaseStudy())
	if err != nil {
		return err
	}

	w := newTable()
	fmt.Fprintln(w, "option\tHA selection\tTCO/mo\tnote")
	for _, c := range cards {
		note := ""
		switch c.Option {
		case rec.BestOption:
			note = "<= RECOMMENDED (min TCO, Eq. 6)"
		case rec.MinRiskOption:
			note = "<= min-slippage-risk choice"
		case rec.AsIsOption:
			note = "<= as-is ad-hoc strategy"
		}
		fmt.Fprintf(w, "#%d\t%s\t%s\t%s\n", c.Option, c.Label(), c.TCO, note)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	best := rec.Best()
	asIs := cards[rec.AsIsOption-1]
	minRisk := cards[rec.MinRiskOption-1]
	fmt.Printf("\nas-is TCO:        %s/month (option #%d)\n", asIs.TCO, rec.AsIsOption)
	fmt.Printf("recommended TCO:  %s/month (option #%d, %s)\n", best.TCO, best.Option, best.Label())
	fmt.Printf("savings:          %.1f%%   (paper reports ≈ 62%%)\n", rec.SavingsFraction*100)
	fmt.Printf("min-risk option:  #%d (%s) at %s/month, uptime %.4f%%\n",
		rec.MinRiskOption, minRisk.Label(), minRisk.TCO, minRisk.Uptime*100)

	// The Section III.C effort is the level-search reference's on the
	// compiled case study: the engine answers with the frontier DP.
	p, err := engine.Compile(broker.CaseStudy())
	if err != nil {
		return err
	}
	pruned, err := p.Pruned()
	if err != nil {
		return err
	}
	fmt.Printf("search:           %d options, %d evaluated, %d pruned (Section III.C)\n",
		p.SpaceSize(), pruned.Evaluated, pruned.Skipped)
	return nil
}

// runSLASweep shows how the recommendation moves with contract terms.
func runSLASweep() error {
	header("TAB-SLA — Recommendation vs SLA stringency and penalty rate")
	engine, err := newEngine()
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintln(w, "SLA %\tpenalty $/h\trecommended option\tTCO/mo\tuptime %\tmeets SLA")
	for _, slaPct := range []float64{95, 97, 98, 99, 99.5, 99.9} {
		for _, perHour := range []float64{50, 100, 400} {
			req := broker.CaseStudy()
			req.SLA = cost.SLA{UptimePercent: slaPct, Penalty: cost.Penalty{PerHour: cost.Dollars(perHour)}}
			rec, err := engine.Recommend(context.Background(), req)
			if err != nil {
				return err
			}
			best := rec.Best()
			fmt.Fprintf(w, "%.1f\t%.0f\t#%d %s\t%s\t%.4f\t%v\n",
				slaPct, perHour, best.Option, best.Label(), best.TCO, best.Uptime*100, best.MeetsSLA)
		}
	}
	return w.Flush()
}

// runComplexity reproduces the Section III.C complexity discussion:
// exhaustive k^n evaluations vs the superset-pruned search.
func runComplexity() error {
	header("COMPLEX — Exhaustive O(k^n) vs superset-pruned search (Section III.C)")
	w := newTable()
	fmt.Fprintln(w, "n\tk\tspace k^n\texhaustive evals\texhaustive time\tpruned evals\tpruned skipped\tpruned time\tsame optimum")
	for _, shape := range []struct{ n, k int }{
		{2, 2}, {4, 2}, {6, 2}, {8, 2}, {10, 2}, {12, 2},
		{6, 3}, {6, 4}, {8, 3},
	} {
		p := syntheticProblem(shape.n, shape.k)

		t0 := time.Now()
		ex, err := p.Exhaustive()
		if err != nil {
			return err
		}
		exTime := time.Since(t0)

		t0 = time.Now()
		pr, err := p.Pruned()
		if err != nil {
			return err
		}
		prTime := time.Since(t0)

		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\t%d\t%d\t%v\t%v\n",
			shape.n, shape.k, p.SpaceSize(), ex.Evaluated, exTime.Round(time.Microsecond),
			pr.Evaluated, pr.Skipped, prTime.Round(time.Microsecond),
			ex.Best.TCO.Total() == pr.Best.TCO.Total())
	}
	return w.Flush()
}

// syntheticProblem builds an n-component, k-choice instance whose SLA
// is attainable below the top level, so pruning has work to do. Shared
// with the root benchmarks via duplication kept intentionally small.
func syntheticProblem(n, k int) *optimize.Problem {
	comps := make([]optimize.ComponentChoices, n)
	for i := range comps {
		variants := make([]optimize.Variant, k)
		variants[0] = optimize.Variant{
			Label:   "none",
			Cluster: availability.Cluster{Name: "c", Nodes: 2, Tolerated: 0, NodeDown: 0.004},
		}
		for v := 1; v < k; v++ {
			variants[v] = optimize.Variant{
				Label: fmt.Sprintf("ha%d", v),
				Cluster: availability.Cluster{
					Name: "c", Nodes: 2 + v, Tolerated: v, NodeDown: 0.004,
					FailuresPerYear: 4, Failover: 3 * time.Minute,
				},
				MonthlyCost: cost.Dollars(float64(200 * v)),
			}
		}
		comps[i] = optimize.ComponentChoices{Name: fmt.Sprintf("c%d", i), Variants: variants}
	}
	return &optimize.Problem{
		Components: comps,
		SLA:        cost.SLA{UptimePercent: 97, Penalty: cost.Penalty{PerHour: cost.Dollars(150)}},
	}
}

// runValidate compares analytic U_s with Monte-Carlo uptime for every
// case-study option.
func runValidate(reps, years int, seed int64) error {
	header("VALID — Analytic model (Eq. 1–4) vs Monte-Carlo simulation, per option")
	engine, err := newEngine()
	if err != nil {
		return err
	}
	req := broker.CaseStudy()
	problem, err := engine.Compile(req)
	if err != nil {
		return err
	}
	cards, err := listCards(engine, req)
	if err != nil {
		return err
	}

	w := newTable()
	fmt.Fprintln(w, "option\tHA selection\tanalytic uptime %\tsimulated uptime %\t95% CI ±\tagree")
	for _, card := range cards {
		sys, err := systemForCard(problem, card)
		if err != nil {
			return err
		}
		est, err := failsim.Run(context.Background(), failsim.Config{
			System:       sys,
			Horizon:      time.Duration(years) * 365 * 24 * time.Hour,
			Replications: reps,
			Seed:         seed + int64(card.Option),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "#%d\t%s\t%.4f\t%.4f\t%.4f\t%v\n",
			card.Option, card.Label(), card.Uptime*100, est.Uptime*100, est.CI95()*100,
			est.AgreesWith(card.Uptime))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d replications × %d simulated years per option, seed %d\n", reps, years, seed)
	return nil
}

// systemForCard rebuilds the availability system behind an option card
// by matching variant labels.
func systemForCard(problem *optimize.Problem, card broker.OptionCard) (availability.System, error) {
	clusters := make([]availability.Cluster, len(card.Choices))
	for i, choice := range card.Choices {
		wantLabel := choice.TechID
		if wantLabel == "" {
			wantLabel = broker.NoHALabel
		}
		found := false
		for _, v := range problem.Components[i].Variants {
			if v.Label == wantLabel {
				clusters[i] = v.Cluster
				found = true
				break
			}
		}
		if !found {
			return availability.System{}, fmt.Errorf("no variant %q for component %q", wantLabel, choice.Component)
		}
	}
	return availability.System{Clusters: clusters}, nil
}

// runFuture prints the Section V extended-catalog recommendation.
func runFuture() error {
	header("FUTURE — Section V scenario: five-tier hybrid, extended HA catalog")
	engine, err := newEngine()
	if err != nil {
		return err
	}
	req := broker.FutureWork(catalog.ProviderSoftLayerSim)
	rec, err := engine.Recommend(context.Background(), req)
	if err != nil {
		return err
	}
	fmt.Printf("option space: %d permutations, %d evaluated, %d pruned\n\n",
		rec.Search.SpaceSize, rec.Search.Evaluated, rec.Search.Skipped)

	w := newTable()
	fmt.Fprintln(w, "rank\toption\tHA selection\tTCO/mo\tuptime %")
	// Top 10 by TCO (selection sort; the listing is small).
	cards, err := listCards(engine, req)
	if err != nil {
		return err
	}
	for i := 0; i < len(cards); i++ {
		for j := i + 1; j < len(cards); j++ {
			if cards[j].TCO < cards[i].TCO {
				cards[i], cards[j] = cards[j], cards[i]
			}
		}
	}
	for i := 0; i < 10 && i < len(cards); i++ {
		fmt.Fprintf(w, "%d\t#%d\t%s\t%s\t%.4f\n",
			i+1, cards[i].Option, cards[i].Label(), cards[i].TCO, cards[i].Uptime*100)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	best := rec.Best()
	fmt.Printf("\nrecommended: option #%d (%s), TCO %s/month\n", best.Option, best.Label(), best.TCO)
	return nil
}

// runHybrid quotes the same workload across every cloud in the
// portfolio — the broker's hybrid vantage point.
func runHybrid() error {
	header("HYBRID — Three-tier workload quoted across the hybrid portfolio")
	engine, err := newEngine()
	if err != nil {
		return err
	}
	w := newTable()
	fmt.Fprintln(w, "provider\tbest option\tHA selection\tTCO/mo\tuptime %\tmin-risk option")
	for _, provider := range []string{catalog.ProviderSoftLayerSim, catalog.ProviderNimbus, catalog.ProviderStratus} {
		req := broker.CaseStudy()
		req.Base = topology.ThreeTier(provider)
		req.AsIs = nil // incumbents are provider-specific; compare fresh
		rec, err := engine.Recommend(context.Background(), req)
		if err != nil {
			return err
		}
		best := rec.Best()
		minRisk := "-"
		if card, err := rec.Card(rec.MinRiskOption); err == nil {
			minRisk = fmt.Sprintf("#%d at %s", rec.MinRiskOption, card.TCO)
		}
		fmt.Fprintf(w, "%s\t#%d\t%s\t%s\t%.4f\t%s\n",
			provider, best.Option, best.Label(), best.TCO, best.Uptime*100, minRisk)
	}
	return w.Flush()
}
