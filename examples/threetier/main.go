// Threetier walks the paper's Section III client case study end to
// end: it prints every solution option card (Figures 3–9), the summary
// comparison (Figure 10), and then validates the recommended option's
// expected uptime with the Monte-Carlo failure simulator.
//
// Run with:
//
//	go run ./examples/threetier
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"uptimebroker"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	engine, err := uptimebroker.DefaultEngine()
	if err != nil {
		return err
	}
	req := uptimebroker.CaseStudy()
	rec, err := engine.Recommend(context.Background(), req)
	if err != nil {
		return err
	}
	cards, _, err := engine.Cards(context.Background(), req, 0, uptimebroker.MaxCards)
	if err != nil {
		return err
	}

	fmt.Println("== Solution options (Figures 3-9) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "option\tHA selection\tC_HA/mo\tuptime %\tpenalty/mo\tTCO/mo")
	for _, c := range cards {
		fmt.Fprintf(w, "#%d\t%s\t%s\t%.4f\t%s\t%s\n",
			c.Option, c.Label(), c.HACost, c.Uptime*100, c.Penalty, c.TCO)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	best := rec.Best()
	fmt.Printf("\n== Summary (Figure 10) ==\n")
	fmt.Printf("recommended: option #%d (%s) at %s/month\n", best.Option, best.Label(), best.TCO)
	fmt.Printf("min-risk:    option #%d at %s/month\n",
		rec.MinRiskOption, cards[rec.MinRiskOption-1].TCO)
	fmt.Printf("as-is:       option #%d at %s/month\n",
		rec.AsIsOption, cards[rec.AsIsOption-1].TCO)
	fmt.Printf("savings:     %.1f%% (paper: ≈62%%)\n", rec.SavingsFraction*100)

	// Monte-Carlo check of the recommendation: rebuild the recommended
	// option's clustered system and simulate it. Storage gets the
	// RAID-1 standby; compute and network stay unclustered.
	cat := uptimebroker.DefaultCatalog()
	vm, err := cat.DefaultNodeParams(req.Base.Provider, "vm.virtualized")
	if err != nil {
		return err
	}
	disk, err := cat.DefaultNodeParams(req.Base.Provider, "disk.block")
	if err != nil {
		return err
	}
	gw, err := cat.DefaultNodeParams(req.Base.Provider, "net.gateway")
	if err != nil {
		return err
	}
	raid1, err := cat.Technology("raid1")
	if err != nil {
		return err
	}

	sys := uptimebroker.AvailabilitySystem{Clusters: []uptimebroker.Cluster{
		{Name: "compute", Nodes: 3, Tolerated: 0, NodeDown: vm.Down, FailuresPerYear: vm.FailuresPerYear},
		{Name: "storage", Nodes: 1 + raid1.StandbyNodes, Tolerated: raid1.StandbyNodes,
			NodeDown: disk.Down, FailuresPerYear: disk.FailuresPerYear, Failover: raid1.Failover},
		{Name: "network", Nodes: 1, Tolerated: 0, NodeDown: gw.Down, FailuresPerYear: gw.FailuresPerYear},
	}}

	fmt.Printf("\n== Monte-Carlo validation of option #%d ==\n", best.Option)
	est, err := uptimebroker.Simulate(context.Background(), uptimebroker.SimConfig{
		System:       sys,
		Horizon:      uptimebroker.DefaultSimHorizon,
		Replications: 64,
		Seed:         time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("analytic uptime:  %.4f%%\n", best.Uptime*100)
	fmt.Printf("simulated uptime: %.4f%% ± %.4f%% (95%% CI, %.0f simulated years)\n",
		est.Uptime*100, est.CI95()*100, est.SimulatedYears)
	if est.AgreesWith(best.Uptime) {
		fmt.Println("verdict: the analytic model agrees with the simulation")
	} else {
		fmt.Println("verdict: DISAGREEMENT — investigate model assumptions")
	}
	return nil
}
