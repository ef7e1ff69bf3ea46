package benchreport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"uptimebroker/internal/broker"
	"uptimebroker/internal/catalog"
	"uptimebroker/internal/cost"
	"uptimebroker/internal/httpapi"
	"uptimebroker/internal/reccache"
	"uptimebroker/internal/topology"
)

// cacheRequest builds the n-component brokerage request behind the
// cache scenarios: n compute components restricted to one HA
// technology each, so the candidate space is the same 2^n shape the
// eval and solver scenarios measure — but driven through the full
// broker entry point the cache fronts.
func cacheRequest(n int, slaPercent float64) broker.Request {
	comps := make([]topology.Component, n)
	allowed := make(map[string][]string, n)
	for i := range comps {
		name := fmt.Sprintf("c%02d", i)
		comps[i] = topology.Component{Name: name, Layer: topology.LayerCompute, ActiveNodes: 1}
		allowed[name] = []string{catalog.TechESXHA}
	}
	return broker.Request{
		Base: topology.System{
			Name:       "cache-bench",
			Provider:   catalog.ProviderSoftLayerSim,
			Components: comps,
		},
		SLA: cost.SLA{
			UptimePercent: slaPercent,
			Penalty:       cost.Penalty{PerHour: cost.Dollars(100)},
		},
		AllowedTechs: allowed,
	}
}

// cachedEngine builds a default-catalog engine fronted by a result
// cache, returning the catalog too so miss scenarios can invalidate.
func cachedEngine() (*broker.Engine, *catalog.Catalog, error) {
	cat := catalog.Default()
	e, err := broker.New(cat, broker.CatalogParams{Catalog: cat},
		broker.WithResultCache(reccache.New(reccache.Config{})))
	return e, cat, err
}

// cacheSpec measures one side of the result cache on the n=19
// request: hit answers repeated identical requests from memory,
// miss bumps the catalog epoch before every call so each request is
// a fresh content address and pays the full compile + search +
// answer-card pipeline (plus the cache's own keying and insertion —
// the honest miss cost). The derived cache_hit_speedup ratio is the
// headline CI floors on.
func cacheSpec(hit bool) Spec {
	mode := "miss"
	if hit {
		mode = "hit"
	}
	return Spec{
		Name:    fmt.Sprintf("cache/%s/n=19", mode),
		Group:   "cache",
		Tracked: true,
		Setup: func(string) (runFunc, func(), error) {
			e, cat, err := cachedEngine()
			if err != nil {
				return nil, nil, err
			}
			req := cacheRequest(19, 98)
			// Warm so the hit runs never see the initial miss.
			if _, err := e.Recommend(context.Background(), req); err != nil {
				return nil, nil, err
			}
			return func(iters int) error {
				for i := 0; i < iters; i++ {
					if !hit {
						cat.Invalidate()
					}
					rec, err := e.Recommend(context.Background(), req)
					if err != nil {
						return err
					}
					if rec.BestOption == 0 {
						return fmt.Errorf("recommendation has no best option")
					}
				}
				return nil
			}, func() {}, nil
		},
	}
}

// v2Stats accumulates the concurrent scenario's per-request
// latencies and cache dispositions; each timed run resets it, so the
// sampled extras describe the final (longest) run.
type v2Stats struct {
	mu        sync.Mutex
	latencies []time.Duration
	hits      int
	misses    int
	shared    int
}

func (s *v2Stats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latencies = s.latencies[:0]
	s.hits, s.misses, s.shared = 0, 0, 0
}

func (s *v2Stats) record(lat time.Duration, disposition string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latencies = append(s.latencies, lat)
	switch disposition {
	case "hit":
		s.hits++
	case "miss":
		s.misses++
	case "shared":
		s.shared++
	}
}

// extras derives the percentile and hit-rate metrics from the last
// run's samples.
func (s *v2Stats) extras() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.latencies) == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), s.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return float64(sorted[idx].Nanoseconds())
	}
	total := s.hits + s.misses + s.shared
	m := map[string]float64{
		"requests": float64(len(sorted)),
		"p50_ns":   pct(0.50),
		"p99_ns":   pct(0.99),
	}
	if total > 0 {
		m["hit_rate"] = float64(s.hits+s.shared) / float64(total)
	}
	return m
}

// concurrentV2Workers is how many requests are kept in flight at
// once — the "hundreds of concurrent identical requests" shape the
// singleflight layer exists for.
const concurrentV2Workers = 200

// concurrentV2Spec measures the service under concurrent load: a
// full httpapi server (middleware, JSON codec, cached engine) hit by
// hundreds of simultaneous v2 recommendation requests, four fifths
// identical (the hot key the cache collapses) and one fifth spread
// over a small set of SLA variants (each cached after its first
// computation). One operation is one HTTP round trip; the extras
// report the p50/p99 client-observed latency and the cache hit rate
// of the final run. The instance is n=8 (256 cards): large enough
// for real responses, small enough that the per-request JSON
// serialization does not drown the concurrency behavior the
// scenario isolates.
func concurrentV2Spec() Spec {
	st := &v2Stats{}
	return Spec{
		Name:    "cache/concurrent-v2",
		Group:   "cache",
		Tracked: true,
		Extra:   st.extras,
		Setup: func(string) (runFunc, func(), error) {
			e, _, err := cachedEngine()
			if err != nil {
				return nil, nil, err
			}
			srv, err := httpapi.NewServer(e, nil, nil)
			if err != nil {
				return nil, nil, err
			}
			ts := httptest.NewServer(srv)
			cleanup := func() {
				ts.Close()
				srv.Close()
			}

			// Pre-marshal the hot body and the SLA variants; the loop
			// must measure the server, not client-side encoding.
			toWire := func(req broker.Request) ([]byte, error) {
				return json.Marshal(httpapi.RecommendationRequest{
					Base:              req.Base,
					SLAPercent:        req.SLA.UptimePercent,
					PenaltyPerHourUSD: req.SLA.Penalty.PerHour.Dollars(),
					AllowedTechs:      req.AllowedTechs,
				})
			}
			hot, err := toWire(cacheRequest(8, 98))
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			variants := make([][]byte, 8)
			for i := range variants {
				variants[i], err = toWire(cacheRequest(8, 95+0.5*float64(i)))
				if err != nil {
					cleanup()
					return nil, nil, err
				}
			}

			client := &http.Client{Transport: &http.Transport{
				MaxIdleConns:        concurrentV2Workers,
				MaxIdleConnsPerHost: concurrentV2Workers,
			}}
			url := ts.URL + "/v2/recommendations"
			post := func(body []byte) error {
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					return err
				}
				lat := time.Since(start)
				disposition := resp.Header.Get("X-Cache")
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					_ = resp.Body.Close()
					return err
				}
				if err := resp.Body.Close(); err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("POST /v2/recommendations: HTTP %d", resp.StatusCode)
				}
				st.record(lat, disposition)
				return nil
			}

			return func(iters int) error {
				st.reset()
				workers := concurrentV2Workers
				if workers > iters {
					workers = iters
				}
				indices := make(chan int)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						// A failed worker keeps draining the channel so
						// the feeder never blocks on dead workers.
						for i := range indices {
							if errs[w] != nil {
								continue
							}
							body := hot
							if i%5 == 0 {
								body = variants[(i/5)%len(variants)]
							}
							if err := post(body); err != nil {
								errs[w] = err
							}
						}
					}(w)
				}
				for i := 0; i < iters; i++ {
					indices <- i
				}
				close(indices)
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			}, cleanup, nil
		},
	}
}
