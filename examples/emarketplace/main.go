// E-marketplace: the paper's Section 1.1 motivating scenario. eWine asks
// the mediator for two international-shipping providers; five candidates
// answer with their intentions (Table 1 of the paper); the mediator
// collects intentions *concurrently with a timeout* (Algorithm 1, lines
// 2-5 — one of the providers is slow and defaults to indifference) and
// allocates by Definition 9 scores.
//
//	go run ./examples/emarketplace
package main

import (
	"context"
	"fmt"
	"time"

	"sqlb"
	"sqlb/internal/core"
)

// shippingProvider is a provider endpoint with a scripted intention and
// response latency — standing in for a remote company site.
type shippingProvider struct {
	name      string
	intention float64
	latency   time.Duration
}

func (s shippingProvider) Intention(ctx context.Context, _ *sqlb.Query) (float64, error) {
	select {
	case <-time.After(s.latency):
		return s.intention, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// eWine is the consumer endpoint: its intentions per provider are scripted
// to the Table 1 values.
type eWine struct {
	intentions map[int]float64
}

func (c eWine) Intention(_ context.Context, _ *sqlb.Query, p *sqlb.Provider) (float64, error) {
	return c.intentions[p.ID], nil
}

func main() {
	// Five candidate shipping companies. p5 is overloaded (its own
	// intention would be negative once asked about utilization), p2/p4 do
	// not intend to deal with the query, and eWine does not trust p1/p3.
	cfg := sqlb.DefaultConfig()
	cfg.Consumers = 1
	cfg.Providers = 5
	pop := sqlb.NewPopulation(cfg, 1)
	q := &sqlb.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: 2}

	providers := []sqlb.ProviderClient{
		shippingProvider{name: "p1", intention: 1, latency: time.Millisecond},
		shippingProvider{name: "p2", intention: -1, latency: time.Millisecond},
		shippingProvider{name: "p3", intention: 1, latency: 2 * time.Second}, // too slow: defaults to 0
		shippingProvider{name: "p4", intention: -1, latency: time.Millisecond},
		shippingProvider{name: "p5", intention: 1, latency: time.Millisecond},
	}
	consumer := eWine{intentions: map[int]float64{0: -1, 1: 1, 2: -1, 3: 1, 4: 1}}

	collector := &sqlb.IntentionCollector{Timeout: 100 * time.Millisecond}
	start := time.Now()
	ci, pi, st := collector.Collect(context.Background(), q, pop.Providers, consumer, providers)
	fmt.Printf("collected intentions in %v (%d timed out → indifference)\n\n",
		time.Since(start).Round(time.Millisecond), st.Timeouts)

	// Score and rank per Definition 9 with the initial even balance ω=0.5.
	omegas := make([]float64, len(pop.Providers))
	for i := range omegas {
		omegas[i] = core.Omega(0.5, 0.5)
	}
	ranking := core.Rank(pi, ci, omegas, 1)
	selected := core.Select(nil, q.N, ranking)

	fmt.Println("provider  prov.int  cons.int    score  rank")
	rankOf := map[int]int{}
	scores := map[int]float64{}
	for pos, r := range ranking {
		rankOf[r.Index] = pos + 1
		scores[r.Index] = r.Score
	}
	for i := range pop.Providers {
		fmt.Printf("  p%d      %+8.2f  %+8.2f  %+7.3f  %4d\n",
			i+1, pi[i], ci[i], scores[i], rankOf[i])
	}
	fmt.Printf("\neWine asked for %d proposals; SQLB selects:", q.N)
	for _, idx := range selected {
		fmt.Printf(" p%d", idx+1)
	}
	fmt.Println()
	fmt.Println("p5 — the only provider both sides want — ranks first, exactly as the paper argues.")
	fmt.Println("A capacity-based mediator would have picked p1 and p2 and likely lost both eWine and p2.")
}
