// Quickstart: one call into the brokerage with the paper's built-in
// case study, printing the recommendation and the savings against the
// incumbent ad-hoc HA strategy.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"uptimebroker"
)

func main() {
	engine, err := uptimebroker.DefaultEngine()
	if err != nil {
		log.Fatal(err)
	}

	rec, err := engine.Recommend(context.Background(), uptimebroker.CaseStudy())
	if err != nil {
		log.Fatal(err)
	}

	best := rec.Best()
	fmt.Printf("base architecture: %q on %s\n", rec.System, rec.Provider)
	fmt.Printf("SLA: %.0f%% uptime, penalty %s/hour\n\n", rec.SLA.UptimePercent, rec.SLA.Penalty.PerHour)

	fmt.Printf("searched %d HA permutations\n", rec.Search.SpaceSize)
	fmt.Printf("recommended: option #%d (%s)\n", best.Option, best.Label())
	fmt.Printf("  expected uptime:  %.4f%%\n", best.Uptime*100)
	fmt.Printf("  HA cost:          %s/month\n", best.HACost)
	fmt.Printf("  expected penalty: %s/month\n", best.Penalty)
	fmt.Printf("  TCO:              %s/month\n", best.TCO)

	if asIs, err := rec.Card(rec.AsIsOption); err == nil {
		fmt.Printf("\nas-is strategy (option #%d) costs %s/month\n", asIs.Option, asIs.TCO)
		fmt.Printf("savings: %.1f%%\n", rec.SavingsFraction*100)
	}
}
