package broker

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/optimize"
)

// CardsRule folds listing cards under the cards' own selection rule —
// the reference an answer is held to. Best is the lowest TCO, MinRisk
// the lowest HA cost among SLA-meeting cards, each tie to the lowest
// option number; AsIsCard is the card whose plan is AsIs. Cards may
// arrive in any order. It is exported for the external test package.
type CardsRule struct {
	AsIs                    Plan
	Best, MinRisk, AsIsCard OptionCard
}

// Add folds one card.
func (r *CardsRule) Add(c OptionCard) {
	if r.Best.Option == 0 || c.TCO < r.Best.TCO || (c.TCO == r.Best.TCO && c.Option < r.Best.Option) {
		r.Best = c
	}
	if c.MeetsSLA && (r.MinRisk.Option == 0 || c.HACost < r.MinRisk.HACost ||
		(c.HACost == r.MinRisk.HACost && c.Option < r.MinRisk.Option)) {
		r.MinRisk = c
	}
	if r.AsIs != nil && samePlan(c.Plan(), r.AsIs) {
		r.AsIsCard = c
	}
}

// samePlan compares plans, treating a baseline ("") entry as absent.
func samePlan(a, b Plan) bool {
	drop := func(p Plan) Plan {
		out := Plan{}
		for k, v := range p {
			if v != "" {
				out[k] = v
			}
		}
		return out
	}
	return reflect.DeepEqual(drop(a), drop(b))
}

// Check reports how rec departs from the rule: its options, its
// savings and its cards, which must be exactly the listing's best,
// min-risk and as-is cards, distinct and in option order.
func (r *CardsRule) Check(rec *Recommendation) error {
	if rec.BestOption != r.Best.Option || rec.MinRiskOption != r.MinRisk.Option || rec.AsIsOption != r.AsIsCard.Option {
		return fmt.Errorf("options #%d/#%d/#%d, rule #%d/#%d/#%d",
			rec.BestOption, rec.MinRiskOption, rec.AsIsOption, r.Best.Option, r.MinRisk.Option, r.AsIsCard.Option)
	}
	var savings float64
	if asIs := r.AsIsCard; asIs.Option != 0 && asIs.Option != r.Best.Option && asIs.TCO > 0 {
		savings = 1 - float64(r.Best.TCO)/float64(asIs.TCO)
	}
	if rec.SavingsFraction != savings {
		return fmt.Errorf("savings %v, rule %v", rec.SavingsFraction, savings)
	}
	want := []OptionCard{r.Best}
	for _, c := range []OptionCard{r.MinRisk, r.AsIsCard} {
		if c.Option != 0 && !slices.ContainsFunc(want, func(w OptionCard) bool { return w.Option == c.Option }) {
			want = append(want, c)
		}
	}
	slices.SortFunc(want, func(a, b OptionCard) int { return cmp.Compare(a.Option, b.Option) })
	if !reflect.DeepEqual(rec.Cards, want) {
		return fmt.Errorf("answer cards %+v, listing %+v", rec.Cards, want)
	}
	return nil
}

// streamListing is the full card list priced the way Recommend priced
// it before cards were built on demand: one streaming pass over the
// space, each candidate written into its presentation slot by the
// ranker. It is the independent reference for Engine.Cards.
func streamListing(t *testing.T, c *compiled) []OptionCard {
	t.Helper()
	cards := make([]OptionCard, c.problem.SpaceSize())
	rk := newRanker(c.problem)
	sla := c.problem.SLA
	if err := c.problem.StreamContext(context.Background(), func(cur *optimize.Cursor) error {
		a := cur.Assignment()
		pos := rk.position(a)
		tco := cur.TCO()
		cards[pos] = OptionCard{
			Option:        pos + 1,
			Choices:       c.choicesFor(a),
			HACost:        tco.HA,
			Uptime:        cur.Uptime(),
			SlippageHours: sla.SlippageHoursPerMonth(cur.Uptime()),
			Penalty:       tco.ExpectedPenalty,
			TCO:           tco.Total(),
			MeetsSLA:      cur.MeetsSLA(),
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return cards
}

// TestCardsMatchStreamReference pins Engine.Cards, card for card, to
// the streaming reference on the case study, the future-work scenario
// on every provider and the symmetric shapes up to n=12.
func TestCardsMatchStreamReference(t *testing.T) {
	e := newTestEngine(t)
	reqs := []Request{CaseStudy()}
	for _, provider := range []string{catalog.ProviderSoftLayerSim, catalog.ProviderNimbus, catalog.ProviderStratus} {
		reqs = append(reqs, FutureWork(provider))
	}
	for n := 1; n <= 12; n++ {
		reqs = append(reqs, wideRequest(n))
	}
	for i, req := range reqs {
		c, err := e.compile(e.normalize(req))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := allCards(t, e, req), streamListing(t, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d (%s): listing diverges from the stream reference", i, req.Base.Name)
		}
	}
}

// TestCardsPaging pins the listing's edges: pages tile the space,
// a page past the end is empty, the cap is enforced with ErrCardCap
// and the request is validated like Recommend's.
func TestCardsPaging(t *testing.T) {
	e := newTestEngine(t)
	req := FutureWork(catalog.ProviderSoftLayerSim)
	all := allCards(t, e, req)
	var tiled []OptionCard
	for offset := 0; offset < len(all); offset += 7 {
		page, space, err := e.Cards(context.Background(), req, offset, 7)
		if err != nil || space != len(all) {
			t.Fatalf("page at %d: space %d, %v", offset, space, err)
		}
		tiled = append(tiled, page...)
	}
	if !reflect.DeepEqual(tiled, all) {
		t.Fatal("pages of 7 do not tile the listing")
	}
	if page, _, err := e.Cards(context.Background(), req, len(all), MaxCards); err != nil || len(page) != 0 {
		t.Fatalf("page past the end = %d cards, %v", len(page), err)
	}
	if _, _, err := e.Cards(context.Background(), req, 0, MaxCards+1); !errors.Is(err, ErrCardCap) {
		t.Fatalf("over-cap page = %v, want ErrCardCap", err)
	}
	if _, _, err := e.Cards(context.Background(), req, -1, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
	bad := CaseStudy()
	bad.AsIs = Plan{"storage": "raid-17"}
	if _, _, err := e.Cards(context.Background(), bad, 0, 1); err == nil {
		t.Fatal("inexpressible as-is plan accepted by Cards")
	}
}

// TestRankUnrankRoundTrip pins unrank as position's inverse: every
// position of random shapes up to 2^12 candidates, and random
// positions (plus both ends) of random n=30 shapes.
func TestRankUnrankRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2310))
	for trial := 0; trial < 200; trial++ {
		var arities []int
		space := 1
		for len(arities) < 12 {
			k := 1 + rng.Intn(4)
			if space*k > 1<<12 {
				break
			}
			arities = append(arities, k)
			space *= k
		}
		if len(arities) == 0 {
			continue
		}
		rk := newRanker(shapeProblem(arities))
		for pos := 0; pos < space; pos++ {
			if got := rk.position(rk.unrank(pos)); got != pos {
				t.Fatalf("arities %v: position(unrank(%d)) = %d", arities, pos, got)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		arities := make([]int, 30)
		for i := range arities {
			arities[i] = 2 + rng.Intn(2)
		}
		p := shapeProblem(arities)
		space := p.SpaceSize()
		rk := newRanker(p)
		for _, pos := range append([]int{0, space - 1}, func() []int {
			out := make([]int, 500)
			for i := range out {
				out[i] = rng.Intn(space)
			}
			return out
		}()...) {
			if got := rk.position(rk.unrank(pos)); got != pos {
				t.Fatalf("n=30 arities %v: position(unrank(%d)) = %d", arities, pos, got)
			}
		}
	}
}

// TestRecommendMatchesBenchProblemRule holds the answer on the
// tie-heavy symmetric benchmark shapes — where the search's own
// lexicographic tie order and the cards' option order part — to the
// cards' rule folded over the full listing, with the all-HA plan as
// the incumbent.
func TestRecommendMatchesBenchProblemRule(t *testing.T) {
	for n := 11; n <= 16; n++ {
		for _, sla := range []float64{optimize.BenchSLAPercent, optimize.BenchSLADeepPercent, 98, 99} {
			p := optimize.BenchProblem(n, sla)
			c := &compiled{problem: p, names: make([]string, n), techIDs: make([][]string, n)}
			asIs := make(optimize.Assignment, n)
			plan := Plan{}
			for i := range c.names {
				c.names[i] = fmt.Sprintf("c%02d", i)
				c.techIDs[i] = []string{"", "ha"}
				asIs[i] = 1
				plan[c.names[i]] = "ha"
			}
			rec, err := c.recommend(context.Background(), optimize.SolverConfig{}, asIs)
			if err != nil {
				t.Fatal(err)
			}
			rule := CardsRule{AsIs: plan}
			for offset := 0; offset < p.SpaceSize(); offset += MaxCards {
				page, err := c.cards(offset, MaxCards)
				if err != nil {
					t.Fatal(err)
				}
				for _, card := range page {
					rule.Add(card)
				}
			}
			if err := rule.Check(rec); err != nil {
				t.Fatalf("n=%d sla=%v: %v", n, sla, err)
			}
		}
	}
}

// TestSavingsFractionIdentity pins the edge the division used to
// leave implicit: when the incumbent already is the optimum, the
// savings are exactly zero.
func TestSavingsFractionIdentity(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.AsIs = Plan{"storage": catalog.TechRAID1} // the case study's optimum (option #3)
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if rec.AsIsOption != rec.BestOption {
		t.Fatalf("as-is option %d != best option %d; the fixture no longer makes the incumbent optimal",
			rec.AsIsOption, rec.BestOption)
	}
	if rec.SavingsFraction != 0 {
		t.Fatalf("savings against an already-optimal incumbent = %v, want exactly 0", rec.SavingsFraction)
	}
}

// TestSavingsFractionZeroTCOAsIs pins the division-by-zero edge: a
// penalty-free SLA makes the no-HA incumbent's TCO zero, and the
// savings must come out zero, not Inf or NaN.
func TestSavingsFractionZeroTCOAsIs(t *testing.T) {
	e := newTestEngine(t)
	req := CaseStudy()
	req.SLA = cost.SLA{UptimePercent: 98, Penalty: cost.Penalty{}}
	req.AsIs = Plan{} // no HA anywhere: zero HA cost, zero penalty, zero TCO
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if rec.AsIsOption != 1 {
		t.Fatalf("as-is option = %d, want 1 (no HA)", rec.AsIsOption)
	}
	if card, err := rec.Card(1); err != nil || card.TCO != 0 {
		t.Fatalf("no-HA card TCO = %v (%v), want 0 with a penalty-free SLA", card.TCO, err)
	}
	if rec.SavingsFraction != 0 {
		t.Fatalf("savings against a zero-TCO incumbent = %v, want exactly 0", rec.SavingsFraction)
	}
}
