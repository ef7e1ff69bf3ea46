// Command failsim runs the Monte-Carlo failure simulator against the
// paper's case-study options and prints the simulated uptime next to
// the analytic model — a command-line version of the VALID experiment.
//
// Usage:
//
//	failsim [-option N] [-years N] [-reps N] [-seed N] [-workers N]
//
// With -option 0 (the default) every option #1..#8 is simulated.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"uptimebroker/internal/availability"
	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/failsim"
	"uptimebroker/internal/optimize"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "failsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("failsim", flag.ContinueOnError)
	var (
		option  = fs.Int("option", 0, "case-study option to simulate (1..8; 0 = all)")
		years   = fs.Int("years", 10, "simulated years per replication")
		reps    = fs.Int("reps", 64, "replications")
		seed    = fs.Int64("seed", 20170611, "RNG seed")
		workers = fs.Int("workers", 0, "concurrent replications (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		return err
	}
	req := broker.CaseStudy()
	problem, err := engine.Compile(req)
	if err != nil {
		return err
	}
	cards, _, err := engine.Cards(context.Background(), req, 0, broker.MaxCards)
	if err != nil {
		return err
	}
	if *option < 0 || *option > len(cards) {
		return fmt.Errorf("option %d out of range [0, %d]", *option, len(cards))
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "option\tHA selection\tanalytic %\tsimulated %\t95% CI ±\tbreakdown %\tfailover %\tsim-years")
	for _, card := range cards {
		if *option != 0 && card.Option != *option {
			continue
		}
		sys, err := systemForCard(problem, card)
		if err != nil {
			return err
		}
		est, err := failsim.Run(context.Background(), failsim.Config{
			System:       sys,
			Horizon:      time.Duration(*years) * 365 * 24 * time.Hour,
			Replications: *reps,
			Seed:         *seed + int64(card.Option),
			Workers:      *workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "#%d\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.0f\n",
			card.Option, card.Label(), card.Uptime*100, est.Uptime*100, est.CI95()*100,
			est.Breakdown*100, est.Failover*100, est.SimulatedYears)
	}
	return w.Flush()
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
