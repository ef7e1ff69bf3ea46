package broker

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"uptimebroker/internal/catalog"
	"uptimebroker/internal/optimize"
	"uptimebroker/internal/topology"
)

// wideRequest builds a request whose 2^n-candidate space takes long
// enough to enumerate that an in-flight cancellation lands mid-run.
func wideRequest(n int) Request {
	comps := make([]topology.Component, n)
	allowed := make(map[string][]string, n)
	for i := range comps {
		name := fmt.Sprintf("tier-%02d", i)
		comps[i] = topology.Component{
			Name:        name,
			Layer:       topology.LayerCompute,
			ActiveNodes: 1,
			Class:       topology.ClassVirtualMachine,
		}
		allowed[name] = []string{catalog.TechESXHA}
	}
	return Request{
		Base: topology.System{
			Name:       "wide",
			Provider:   catalog.ProviderSoftLayerSim,
			Components: comps,
		},
		SLA:          CaseStudy().SLA,
		AllowedTechs: allowed,
	}
}

func TestRecommendCancelMidRun(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// Auto's frontier answers this shape in milliseconds; the full
	// 2^24 stream is what a cancel can catch mid-run.
	req := wideRequest(24)
	req.Strategy = optimize.StrategyExhaustive
	go func() {
		_, err := e.Recommend(ctx, req)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Recommend = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Recommend did not abort after cancel")
	}
}

func TestRecommendBatchOrderAndParity(t *testing.T) {
	e := newTestEngine(t)
	reqs := []Request{
		CaseStudy(),
		FutureWork(catalog.ProviderSoftLayerSim),
		CaseStudy(),
	}
	items := e.RecommendBatch(context.Background(), reqs)
	if len(items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(items), len(reqs))
	}
	for i, item := range items {
		if item.Index != i {
			t.Fatalf("item %d has Index %d", i, item.Index)
		}
		if item.Err != nil {
			t.Fatalf("item %d failed: %v", i, item.Err)
		}
	}

	// Batch results must agree with the sequential path.
	solo, err := e.Recommend(context.Background(), CaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Rec.BestOption != solo.BestOption || items[0].Rec.Cards[0].TCO != solo.Cards[0].TCO {
		t.Fatalf("batch result diverges from sequential: %d vs %d", items[0].Rec.BestOption, solo.BestOption)
	}
	if items[0].Rec.BestOption != items[2].Rec.BestOption {
		t.Fatal("identical batch requests produced different answers")
	}
}

func TestRecommendBatchPartialFailure(t *testing.T) {
	e := newTestEngine(t)
	bad := CaseStudy()
	bad.Base.Provider = "ghost-cloud"
	reqs := []Request{CaseStudy(), bad, CaseStudy()}

	items := e.RecommendBatch(context.Background(), reqs)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("good items failed: %v, %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("bad provider item should fail")
	}
	if items[1].Rec != nil {
		t.Fatal("failed item carries a recommendation")
	}
}

func TestRecommendBatchEmpty(t *testing.T) {
	e := newTestEngine(t)
	if items := e.RecommendBatch(context.Background(), nil); len(items) != 0 {
		t.Fatalf("empty batch returned %d items", len(items))
	}
}

func TestRecommendBatchCancelled(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := e.RecommendBatch(ctx, []Request{CaseStudy(), CaseStudy(), CaseStudy()})
	for i, item := range items {
		if item.Err == nil {
			t.Fatalf("item %d succeeded under a cancelled context", i)
		}
	}
}

func TestRecommendBatchManyConcurrent(t *testing.T) {
	e := newTestEngine(t)
	const n = 32
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = CaseStudy()
	}
	items := e.RecommendBatch(context.Background(), reqs)
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		if item.Rec.BestOption != items[0].Rec.BestOption {
			t.Fatalf("item %d diverges", i)
		}
	}
}
