// Skewed example: the congestion scenario that motivates the paper's
// load-balancing design. Every query probes the same tiny region, so every
// subquery targets the same forest part; the c_j-copy mechanism of
// Algorithm Search (steps 2–4) replicates the hot part and spreads the
// load, where a naive owner-serves-all strategy would bottleneck on one
// processor.
package main

import (
	"fmt"
	"os"

	"repro"
)

func main() {
	const n, p = 16384, 8
	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: drtree.Uniform, Seed: 3})
	mach := drtree.NewMachine(drtree.MachineConfig{P: p})
	tree := drtree.BuildDistributed(mach, pts)

	run := func(name string, boxes []drtree.Box) {
		mach.ResetMetrics()
		counts := tree.CountBatch(boxes)
		// Self-check every 64th answer against a linear scan.
		for i := 0; i < len(boxes); i += 64 {
			want := 0
			for _, pt := range pts {
				if boxes[i].Contains(pt) {
					want++
				}
			}
			if counts[i] != int64(want) {
				fmt.Fprintf(os.Stderr, "mismatch: %s query %d counts %d, a linear scan finds %d\n", name, i, counts[i], want)
				os.Exit(1)
			}
		}
		demand := tree.LastDemand()
		stats := tree.LastSearchStats()
		total, maxDemand, maxServed, copies := 0, 0, 0, 0
		for j, d := range demand {
			total += d
			if d > maxDemand {
				maxDemand = d
			}
			_ = j
		}
		for _, s := range stats {
			if s.Served > maxServed {
				maxServed = s.Served
			}
			copies += s.CopiesHeld
		}
		if total == 0 {
			fmt.Printf("%-10s no subqueries (hat answered everything)\n", name)
			return
		}
		avg := float64(total) / float64(p)
		fmt.Printf("%-10s subqueries %6d | owner-bound load factor %.2f | balanced load factor %.2f | copies shipped %d\n",
			name, total, float64(maxDemand)/avg, float64(maxServed)/avg, copies)
	}

	// Uniform batch: demand is naturally spread.
	run("uniform", drtree.GenerateBoxes(drtree.QuerySpec{
		M: n, Dims: 2, N: n, Selectivity: 0.0005, Seed: 5,
	}))

	// Hot-spot batch: all n queries hit one focus.
	run("hotspot", drtree.GenerateBoxes(drtree.QuerySpec{
		M: n, Dims: 2, N: n, Selectivity: 0.0005, Foci: 1, Seed: 5,
	}))

	fmt.Println("\nThe owner-bound factor approaches p under skew; the paper's copy-based")
	fmt.Println("balancing keeps the served load factor near 1 in both regimes.")
	fmt.Println("ok: sampled counts match a linear scan")
}
