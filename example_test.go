package uptimebroker_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"uptimebroker"
)

// The canonical flow: build the default engine and run the paper's
// case study through it.
func Example() {
	engine, err := uptimebroker.DefaultEngine()
	if err != nil {
		log.Fatal(err)
	}
	rec, err := engine.Recommend(context.Background(), uptimebroker.CaseStudy())
	if err != nil {
		log.Fatal(err)
	}
	best := rec.Best()
	fmt.Printf("option #%d (%s) at %s/month, savings %.1f%%\n",
		best.Option, best.Label(), best.TCO, rec.SavingsFraction*100)
	// Output:
	// option #3 (storage=raid1) at $1,164.90/month, savings 61.8%
}

// Evaluating the analytic uptime model directly (Equations 1-4).
func ExampleUptime() {
	sys := uptimebroker.AvailabilitySystem{Clusters: []uptimebroker.Cluster{
		{Name: "compute", Nodes: 3, Tolerated: 0, NodeDown: 0.0055, FailuresPerYear: 5},
		{Name: "storage", Nodes: 1, Tolerated: 0, NodeDown: 0.02, FailuresPerYear: 3},
		{Name: "network", Nodes: 1, Tolerated: 0, NodeDown: 0.0146, FailuresPerYear: 4},
	}}
	fmt.Printf("U_s = %.4f\n", uptimebroker.Uptime(sys))
	// Output:
	// U_s = 0.9498
}

// Extracting the cost × uptime frontier from the option listing.
func ExampleParetoCards() {
	engine, err := uptimebroker.DefaultEngine()
	if err != nil {
		log.Fatal(err)
	}
	cards, _, err := engine.Cards(context.Background(), uptimebroker.CaseStudy(), 0, uptimebroker.MaxCards)
	if err != nil {
		log.Fatal(err)
	}
	for _, card := range uptimebroker.ParetoCards(cards) {
		fmt.Printf("#%d %s: %s for %.4f%%\n", card.Option, card.Label(), card.HACost, card.Uptime*100)
	}
	// Output:
	// #1 none: $0.00 for 94.9846%
	// #3 storage=raid1: $350.00 for 96.8837%
	// #5 storage=raid1,network=dual-gateway: $1,250.00 for 98.2967%
	// #7 compute=esx-ha,storage=raid1: $2,150.00 for 98.4409%
	// #8 compute=esx-ha,storage=raid1,network=dual-gateway: $3,050.00 for 99.8773%
}

// Rendering a recommendation for spreadsheets; the first CSV line is
// the stable column header.
func ExampleWriteReport() {
	engine, err := uptimebroker.DefaultEngine()
	if err != nil {
		log.Fatal(err)
	}
	rec, err := engine.Recommend(context.Background(), uptimebroker.CaseStudy())
	if err != nil {
		log.Fatal(err)
	}
	cards, _, err := engine.Cards(context.Background(), uptimebroker.CaseStudy(), 0, uptimebroker.MaxCards)
	if err != nil {
		log.Fatal(err)
	}
	var sb strings.Builder
	if err := uptimebroker.WriteReport(&sb, rec, cards, "csv"); err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	fmt.Println(lines[0])
	fmt.Printf("%d option rows\n", len(lines)-1)
	// Output:
	// option,label,ha_cost_usd,uptime,slippage_hours_per_month,penalty_usd,tco_usd,meets_sla,note
	// 8 option rows
}

// Pricing one HA mechanism on a provider's rate card.
func ExampleHATechnology_MonthlyCost() {
	cat := uptimebroker.DefaultCatalog()
	raid1, err := cat.Technology("raid1")
	if err != nil {
		log.Fatal(err)
	}
	provider, err := cat.Provider(uptimebroker.ProviderSoftLayerSim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(raid1.MonthlyCost(provider.RateCard))
	// Output:
	// $350.00
}
