package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/optimize"
)

// decodeResponse decodes a 200 response body into out.
func decodeResponse(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestCardsRoutePages pins the paged listing: pages of the v1 list,
// an empty page past the end, 400 on a malformed offset and
// answer_too_large above the card cap.
func TestCardsRoutePages(t *testing.T) {
	ts, client, _ := newTestServer(t)
	ctx := context.Background()
	full, err := client.Recommend(ctx, caseStudyWire())
	if err != nil {
		t.Fatal(err)
	}
	page, err := client.Cards(ctx, caseStudyWire(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if page.Offset != 2 || page.SpaceSize != 8 || !reflect.DeepEqual(page.Cards, full.Cards[2:5]) {
		t.Fatalf("page = %+v, want options #3-#5 of 8", page)
	}
	if end, err := client.Cards(ctx, caseStudyWire(), 8, 5); err != nil || end.Cards == nil || len(end.Cards) != 0 {
		t.Fatalf("page past the end = %+v, %v; want an empty list", end, err)
	}
	var whole CardPageResponse
	decodeResponse(t, postJSON(t, ts, "/v2/recommendations/cards", caseStudyWire()), &whole)
	if !reflect.DeepEqual(whole.Cards, full.Cards) {
		t.Fatal("default page does not list the whole case study")
	}
	assertProblem(t, postJSON(t, ts, "/v2/recommendations/cards?offset=-1", caseStudyWire()), http.StatusBadRequest, CodeInvalidRequest)
	assertProblem(t, postJSON(t, ts, fmt.Sprintf("/v2/recommendations/cards?limit=%d", broker.MaxCards+1), caseStudyWire()),
		http.StatusUnprocessableEntity, CodeAnswerTooLarge)
}

// TestV1RefusesOverCap: v1 lists every card, so a space past the card
// cap is a 422 answer_too_large there, while v2 answers it with three
// cards and pages its listing.
func TestV1RefusesOverCap(t *testing.T) {
	ts, client, _ := newTestServer(t)
	wide := wideWireRequest(11) // 2048 options
	assertProblem(t, postJSON(t, ts, "/v1/recommendations", wide), http.StatusUnprocessableEntity, CodeAnswerTooLarge)
	var apiErr *APIError
	if _, err := client.Recommend(context.Background(), wide); !errors.As(err, &apiErr) || apiErr.Code != CodeAnswerTooLarge {
		t.Fatalf("client.Recommend over the cap = %v, want answer_too_large", err)
	}
	var v2 RecommendationResponse
	decodeResponse(t, postJSON(t, ts, "/v2/recommendations", wide), &v2)
	if len(v2.Cards) == 0 || len(v2.Cards) > 3 || v2.Search.SpaceSize != 2048 {
		t.Fatalf("v2 answered %d cards of %d", len(v2.Cards), v2.Search.SpaceSize)
	}
	last, err := client.Cards(context.Background(), wide, 2047, broker.MaxCards)
	if err != nil || len(last.Cards) != 1 || last.Cards[0].Option != 2048 {
		t.Fatalf("last page = %+v, %v; want option #2048 alone", last, err)
	}
}

// TestEngineCodeClassifiesCaps: both size caps map to
// answer_too_large through errors.Is, wrapped or not; other engine
// failures stay the request's fault.
func TestEngineCodeClassifiesCaps(t *testing.T) {
	for _, err := range []error{
		optimize.ErrFrontierStateCap,
		fmt.Errorf("pareto: %w", optimize.ErrFrontierStateCap),
		fmt.Errorf("v1: %w", broker.ErrCardCap),
	} {
		if got := engineCode(err); got != CodeAnswerTooLarge {
			t.Fatalf("engineCode(%v) = %q, want %q", err, got, CodeAnswerTooLarge)
		}
	}
	if got := engineCode(errors.New("broker: unknown provider")); got != CodeInvalidRequest {
		t.Fatalf("engineCode(other) = %q, want %q", got, CodeInvalidRequest)
	}
}

// TestV2RecommendsN30Exactly: the n=30 symmetric shape (2^30 options)
// is answered exactly over HTTP, checked against the closed form —
// every assignment on a level prices alike up to rounding, so the
// best and min-risk answers are the cheapest level and the lowest
// SLA-meeting level.
func TestV2RecommendsN30Exactly(t *testing.T) {
	ts, _, _ := newTestServer(t)
	const n = 30
	wire := wideWireRequest(n)
	var resp RecommendationResponse
	decodeResponse(t, postJSON(t, ts, "/v2/recommendations", wire), &resp)
	if resp.Search.Approximate || resp.Search.SpaceSize != 1<<n || resp.Search.Strategy != optimize.StrategyFrontier {
		t.Fatalf("search = %+v, want an exact frontier run over 2^30", resp.Search)
	}

	cat := catalog.Default()
	engine, err := broker.New(cat, broker.CatalogParams{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.Compile(wire.ToBroker())
	if err != nil {
		t.Fatal(err)
	}
	bestLevel, riskLevel, bestTCO, riskTCO := -1, -1, math.Inf(1), 0.0
	for m := 0; m <= n; m++ {
		a := make(optimize.Assignment, n)
		for j := n - m; j < n; j++ {
			a[j] = 1
		}
		c, err := p.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if tco := c.TCO.Total().Dollars(); tco < bestTCO {
			bestLevel, bestTCO = m, tco
		}
		if riskLevel < 0 && c.MeetsSLA(p.SLA) {
			riskLevel, riskTCO = m, c.TCO.Total().Dollars()
		}
	}
	level := func(option int) int {
		for _, c := range resp.Cards {
			if c.Option == option {
				m := 0
				for _, ch := range c.Choices {
					if ch.TechID != "" {
						m++
					}
				}
				return m
			}
		}
		t.Fatalf("option %d has no card in the answer", option)
		return -1
	}
	tco := func(option int) float64 {
		for _, c := range resp.Cards {
			if c.Option == option {
				return c.TCOUSD
			}
		}
		return math.NaN()
	}
	if got := level(resp.BestOption); got != bestLevel || math.Abs(tco(resp.BestOption)-bestTCO) > 0.01 {
		t.Fatalf("best option %d on level %d at $%v, closed form level %d at $%v",
			resp.BestOption, got, tco(resp.BestOption), bestLevel, bestTCO)
	}
	if riskLevel < 0 {
		if resp.MinRiskOption != 0 {
			t.Fatalf("min-risk option %d, but no level meets the SLA", resp.MinRiskOption)
		}
	} else if got := level(resp.MinRiskOption); got != riskLevel || math.Abs(tco(resp.MinRiskOption)-riskTCO) > 0.01 {
		t.Fatalf("min-risk option %d on level %d, closed form level %d", resp.MinRiskOption, got, riskLevel)
	}
}

// assertPricingIgnored posts the case study once bare and once per
// "pricing" value, and fails unless every answer equals the bare one.
func assertPricingIgnored(t *testing.T, modes ...string) {
	t.Helper()
	ts, _, _ := newTestServer(t)
	var base RecommendationResponse
	decodeResponse(t, postJSON(t, ts, "/v2/recommendations", caseStudyWire()), &base)
	for _, mode := range modes {
		body := map[string]any{}
		raw, _ := json.Marshal(caseStudyWire())
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		body["pricing"] = mode
		var got RecommendationResponse
		decodeResponse(t, postJSON(t, ts, "/v2/recommendations", body), &got)
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("pricing %q changed the answer: %+v vs %+v", mode, got, base)
		}
	}
}

// TestPricingFieldIgnored: the retired "pricing" member is accepted
// with each of its former modes — old clients keep working — and
// changes nothing.
func TestPricingFieldIgnored(t *testing.T) {
	assertPricingIgnored(t, "parallel", "sequential", "auto")
}

// TestPricingUnknownIgnored: a value that was never a pricing mode is
// accepted too (no 422 any more) and changes nothing.
func TestPricingUnknownIgnored(t *testing.T) {
	assertPricingIgnored(t, "warp", "")
}
