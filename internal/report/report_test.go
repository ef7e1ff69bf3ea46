package report

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
)

// newEngine builds a default engine over the built-in catalog.
func newEngine(t *testing.T) *broker.Engine {
	t.Helper()
	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// recommend answers req on a default engine and lists all of its
// cards.
func recommend(t *testing.T, req broker.Request) (*broker.Recommendation, []broker.OptionCard) {
	t.Helper()
	engine := newEngine(t)
	rec, err := engine.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cards, _, err := engine.Cards(context.Background(), req, 0, broker.MaxCards)
	if err != nil {
		t.Fatal(err)
	}
	return rec, cards
}

func caseStudyRec(t *testing.T) (*broker.Recommendation, []broker.OptionCard) {
	t.Helper()
	return recommend(t, broker.CaseStudy())
}

func TestTextRendersAllOptions(t *testing.T) {
	rec, cards := caseStudyRec(t)
	var sb strings.Builder
	if err := Text(&sb, rec, cards); err != nil {
		t.Fatalf("Text: %v", err)
	}
	out := sb.String()

	for _, want := range []string{
		"#1", "#8",
		"storage=raid1",
		"RECOMMENDED",
		"min-risk",
		"as-is",
		"$1,164.90",
		"$3,050.00",
		"savings 61.8%",
		"8 options, 6 evaluated, 2 pruned", // auto's frontier run
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Text output missing %q:\n%s", want, out)
		}
	}

	// The paper's Section III.C effort comes from the level-search
	// reference on the compiled case study.
	p, err := newEngine(t).Compile(broker.CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Pruned()
	if err != nil {
		t.Fatal(err)
	}
	rec.Search.Evaluated, rec.Search.Skipped = pr.Evaluated, pr.Skipped
	sb.Reset()
	if err := Text(&sb, rec, cards); err != nil {
		t.Fatal(err)
	}
	if want := "8 options, 7 evaluated, 1 pruned"; !strings.Contains(sb.String(), want) {
		t.Fatalf("pruned Text output missing %q:\n%s", want, sb.String())
	}
}

func TestTextWithoutAsIs(t *testing.T) {
	req := broker.CaseStudy()
	req.AsIs = nil
	rec, cards := recommend(t, req)
	var sb strings.Builder
	if err := Text(&sb, rec, cards); err != nil {
		t.Fatalf("Text: %v", err)
	}
	if strings.Contains(sb.String(), "as-is") {
		t.Fatal("Text should omit the as-is block without an incumbent")
	}
}

func TestMarkdownShape(t *testing.T) {
	rec, cards := caseStudyRec(t)
	var sb strings.Builder
	if err := Markdown(&sb, rec, cards); err != nil {
		t.Fatalf("Markdown: %v", err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "### three-tier on softlayer-sim") {
		t.Fatalf("Markdown header wrong:\n%s", out)
	}
	// 8 option rows + header + separator.
	lines := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "| #") {
			lines++
		}
	}
	if lines != 8 {
		t.Fatalf("Markdown option rows = %d, want 8", lines)
	}
	if !strings.Contains(out, "**recommended:** option #3") {
		t.Fatalf("Markdown missing recommendation:\n%s", out)
	}
	if !strings.Contains(out, "**savings vs as-is:** 61.8%") {
		t.Fatalf("Markdown missing savings:\n%s", out)
	}
}

func TestCSVParsesBack(t *testing.T) {
	rec, cards := caseStudyRec(t)
	var sb strings.Builder
	if err := CSV(&sb, rec, cards); err != nil {
		t.Fatalf("CSV: %v", err)
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("parsing emitted CSV: %v", err)
	}
	if len(records) != 9 { // header + 8 options
		t.Fatalf("CSV rows = %d, want 9", len(records))
	}
	if len(records[0]) != len(CSVHeader) {
		t.Fatalf("CSV columns = %d, want %d", len(records[0]), len(CSVHeader))
	}
	// Option #3 row carries the RECOMMENDED note and the right TCO.
	row3 := records[3]
	if row3[0] != "3" || row3[1] != "storage=raid1" {
		t.Fatalf("row 3 = %v", row3)
	}
	if row3[6] != "1164.90" {
		t.Fatalf("row 3 TCO = %q, want 1164.90", row3[6])
	}
	if !strings.Contains(row3[8], "RECOMMENDED") {
		t.Fatalf("row 3 note = %q", row3[8])
	}
}

func TestRowNoteCombinations(t *testing.T) {
	rec, _ := caseStudyRec(t)
	if note := rowNote(rec, rec.BestOption); note != "RECOMMENDED" {
		t.Fatalf("best note = %q", note)
	}
	if note := rowNote(rec, 1); note != "" {
		t.Fatalf("plain note = %q", note)
	}
	// Force an overlap: pretend best == as-is.
	recCopy := *rec
	recCopy.AsIsOption = recCopy.BestOption
	if note := rowNote(&recCopy, recCopy.BestOption); note != "RECOMMENDED, as-is" {
		t.Fatalf("combined note = %q", note)
	}
}
