// Service: many client goroutines hammering one serving engine.
//
// The paper's theorems price batched searches (m ≥ p² queries per round
// structure), but a service sees queries one at a time. This example
// shows the engine closing that gap: 16 clients each submit single
// Count/Aggregate/Report calls; the engine micro-batches whatever is in
// flight, answers each mixed batch in one machine run, and serves
// repeated boxes from its LRU cache. A sample of answers is checked
// against the brute-force scan.
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/brute"
	"repro/internal/workload"
)

func main() {
	const (
		n       = 1 << 13
		clients = 16
		queries = 400 // per client
	)

	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: drtree.Clustered, Seed: 42})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	tree := drtree.BuildDistributed(mach, pts)
	handle := drtree.PrepareAssociative(tree, drtree.FloatSum(), workload.WeightOf)
	oracle := brute.New(pts)

	eng := drtree.NewAggregateEngine(tree, handle, drtree.EngineConfig{
		BatchSize: 128,
		CacheSize: 512,
	})
	defer eng.Close()

	// A shared pool of boxes, so clients revisit each other's queries and
	// the answer cache earns its keep.
	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: 512, Dims: 2, N: n, Selectivity: 0.005, Seed: 7})

	var answered, checked, mismatches atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < queries; i++ {
				q := boxes[rng.Intn(len(boxes))]
				verify := rng.Intn(50) == 0 // spot-check ~2% against the scan
				switch rng.Intn(3) {
				case 0:
					got, err := eng.Count(q)
					if err != nil {
						panic(err)
					}
					if verify {
						checked.Add(1)
						if got != int64(oracle.Count(q)) {
							mismatches.Add(1)
						}
					}
				case 1:
					got, err := eng.Aggregate(q)
					if err != nil {
						panic(err)
					}
					if verify {
						checked.Add(1)
						want := brute.Aggregate(oracle, drtree.FloatSum(), workload.WeightOf, q)
						if d := got - want; d > 1e-6 || d < -1e-6 {
							mismatches.Add(1)
						}
					}
				default:
					got, err := eng.Report(q)
					if err != nil {
						panic(err)
					}
					if verify {
						checked.Add(1)
						if len(got) != oracle.Count(q) {
							mismatches.Add(1)
						}
					}
				}
				answered.Add(1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := eng.Stats()
	total := answered.Load()
	fmt.Printf("service: %d clients × %d queries over n=%d, p=%d\n", clients, queries, n, tree.P())
	fmt.Printf("  %d answered in %v (%.0f queries/s)\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("  cache: %d hits / %d misses (%.0f%% hit rate)\n",
		st.CacheHits, st.CacheMisses, 100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	fmt.Printf("  batches: %d dispatched (%d full-size, %d partial on an idle machine), mean %.1f queries/batch\n",
		st.Batches, st.SizeFlushes, st.IdleFlushes,
		float64(st.BatchedQueries)/float64(max(st.Batches, 1)))
	fmt.Printf("  spot-checks vs brute force: %d checked, %d mismatches\n", checked.Load(), mismatches.Load())
}
