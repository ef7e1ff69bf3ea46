// Package report renders broker recommendations for humans and
// machines: fixed-width text (CLI output), Markdown (documentation,
// tickets) and CSV (spreadsheets, plotting). The renderers are pure
// functions of the Recommendation and the option cards to list (the
// answer's own cards, or any page of Engine.Cards), so every consumer
// — uptimectl, the experiments harness, downstream users — shows
// identical numbers.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"uptimebroker/internal/broker"
)

// Marker labels attached to special rows.
const (
	markerRecommended = "RECOMMENDED"
	markerMinRisk     = "min-risk"
	markerAsIs        = "as-is"
)

// rowNote builds the annotation for one option row.
func rowNote(rec *broker.Recommendation, option int) string {
	var notes []string
	if option == rec.BestOption {
		notes = append(notes, markerRecommended)
	}
	if option == rec.MinRiskOption {
		notes = append(notes, markerMinRisk)
	}
	if option == rec.AsIsOption {
		notes = append(notes, markerAsIs)
	}
	return strings.Join(notes, ", ")
}

// Text writes the recommendation as an aligned fixed-width table of
// the given cards with a summary block, suitable for terminals.
func Text(w io.Writer, rec *broker.Recommendation, cards []broker.OptionCard) error {
	if _, err := fmt.Fprintf(w, "system %q on %s — SLA %.2f%%, penalty %s/hour\n\n",
		rec.System, rec.Provider, rec.SLA.UptimePercent, rec.SLA.Penalty.PerHour); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "option\tHA selection\tC_HA/mo\tuptime %\tslip h/mo\tpenalty/mo\tTCO/mo\tnote")
	for _, c := range cards {
		fmt.Fprintf(tw, "#%d\t%s\t%s\t%.4f\t%.2f\t%s\t%s\t%s\n",
			c.Option, c.Label(), c.HACost, c.Uptime*100, c.SlippageHours, c.Penalty, c.TCO,
			rowNote(rec, c.Option))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if _, err := fmt.Fprintf(w, "\nrecommended: option #%d (%s) at %s/month\n",
		rec.BestOption, rec.Best().Label(), rec.Best().TCO); err != nil {
		return err
	}
	if minRisk, err := rec.Card(rec.MinRiskOption); err == nil {
		if _, err := fmt.Fprintf(w, "min-risk:    option #%d (%s) at %s/month\n",
			rec.MinRiskOption, minRisk.Label(), minRisk.TCO); err != nil {
			return err
		}
	}
	if asIs, err := rec.Card(rec.AsIsOption); err == nil {
		if _, err := fmt.Fprintf(w, "as-is:       option #%d (%s) at %s/month — savings %.1f%%\n",
			rec.AsIsOption, asIs.Label(), asIs.TCO, rec.SavingsFraction*100); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "search:      %d options, %d evaluated, %d pruned\n",
		rec.Search.SpaceSize, rec.Search.Evaluated, rec.Search.Skipped)
	return err
}

// Markdown writes the recommendation as a GitHub-flavored Markdown
// table of the given cards with a summary list.
func Markdown(w io.Writer, rec *broker.Recommendation, cards []broker.OptionCard) error {
	if _, err := fmt.Fprintf(w, "### %s on %s — SLA %.2f%%\n\n", rec.System, rec.Provider, rec.SLA.UptimePercent); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| option | HA selection | C_HA/mo | uptime % | penalty/mo | TCO/mo | note |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|--------|--------------|---------|----------|------------|--------|------|"); err != nil {
		return err
	}
	for _, c := range cards {
		if _, err := fmt.Fprintf(w, "| #%d | %s | %s | %.4f | %s | %s | %s |\n",
			c.Option, c.Label(), c.HACost, c.Uptime*100, c.Penalty, c.TCO, rowNote(rec, c.Option)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n- **recommended:** option #%d (%s), %s/month\n",
		rec.BestOption, rec.Best().Label(), rec.Best().TCO); err != nil {
		return err
	}
	if rec.AsIsOption > 0 {
		if _, err := fmt.Fprintf(w, "- **savings vs as-is:** %.1f%%\n", rec.SavingsFraction*100); err != nil {
			return err
		}
	}
	return nil
}

// CSVHeader is the column layout CSV emits.
var CSVHeader = []string{
	"option", "label", "ha_cost_usd", "uptime", "slippage_hours_per_month",
	"penalty_usd", "tco_usd", "meets_sla", "note",
}

// CSV writes one row per given card plus a header, RFC-4180
// formatted.
func CSV(w io.Writer, rec *broker.Recommendation, cards []broker.OptionCard) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for _, c := range cards {
		row := []string{
			strconv.Itoa(c.Option),
			c.Label(),
			strconv.FormatFloat(c.HACost.Dollars(), 'f', 2, 64),
			strconv.FormatFloat(c.Uptime, 'f', 8, 64),
			strconv.FormatFloat(c.SlippageHours, 'f', 4, 64),
			strconv.FormatFloat(c.Penalty.Dollars(), 'f', 2, 64),
			strconv.FormatFloat(c.TCO.Dollars(), 'f', 2, 64),
			strconv.FormatBool(c.MeetsSLA),
			rowNote(rec, c.Option),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
