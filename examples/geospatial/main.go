// Geospatial example: 2-d range reporting over clustered "city" points —
// the classical GIS workload the range-search literature motivates.
// Demonstrates report mode, the k/p output balance of Theorem 4, and raw
// box translation through the normalizer.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro"
)

func main() {
	const n, p = 20000, 8
	rng := rand.New(rand.NewSource(7))

	// Synthetic city: dense downtown blobs plus uniform sprawl, as raw
	// (longitude, latitude) pairs.
	raw := make([][]float64, n)
	downtown := [][2]float64{{-71.06, 42.36}, {-71.10, 42.35}, {-71.05, 42.40}}
	for i := range raw {
		if rng.Float64() < 0.7 {
			c := downtown[rng.Intn(len(downtown))]
			raw[i] = []float64{c[0] + rng.NormFloat64()*0.01, c[1] + rng.NormFloat64()*0.01}
		} else {
			raw[i] = []float64{-71.2 + rng.Float64()*0.3, 42.25 + rng.Float64()*0.25}
		}
	}
	pts, norm := drtree.Normalize(raw)

	mach := drtree.NewMachine(drtree.MachineConfig{P: p})
	tree := drtree.BuildDistributed(mach, pts)
	fmt.Printf("indexed %d locations on %d processors (grain %d, hat %d nodes)\n",
		tree.N(), p, tree.Grain(), tree.HatNodeCount())
	mach.ResetMetrics()

	// A batch of viewport queries: three downtown windows and one sparse
	// suburban window.
	windows := [][4]float64{
		{-71.075, 42.350, -71.045, 42.370}, // downtown core
		{-71.115, 42.340, -71.085, 42.360}, // second blob
		{-71.065, 42.390, -71.035, 42.410}, // third blob
		{-71.200, 42.250, -71.170, 42.270}, // sparse suburb
	}
	boxes := make([]drtree.Box, len(windows))
	for i, w := range windows {
		boxes[i] = norm.Box([]float64{w[0], w[1]}, []float64{w[2], w[3]})
	}

	results, perProc := tree.ReportBatchBalance(boxes)
	k := 0
	for i, r := range results {
		k += len(r)
		fmt.Printf("viewport %d: %5d locations", i, len(r))
		if len(r) > 0 {
			first := r[0]
			fmt.Printf("  (first hit: %.4f, %.4f)", raw[first.ID][0], raw[first.ID][1])
		}
		fmt.Println()
	}
	mt := mach.Metrics()
	fmt.Printf("\nreport mode: k=%d pairs in %d communication rounds (max h %d)\n",
		k, mt.CommRounds(), mt.MaxH())
	fmt.Printf("k/p balance across processors (Theorem 4): %v\n", perProc)

	// Self-check: every viewport reports exactly the locations a linear
	// scan of the same points finds.
	for i, b := range boxes {
		want := 0
		for _, pt := range pts {
			if b.Contains(pt) {
				want++
			}
		}
		for _, pt := range results[i] {
			if !b.Contains(pt) {
				fail("viewport %d reported location %d outside it", i, pt.ID)
			}
		}
		if len(results[i]) != want {
			fail("viewport %d reported %d locations, a linear scan finds %d", i, len(results[i]), want)
		}
	}
	fmt.Println("ok: every viewport matches a linear scan")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mismatch: "+format+"\n", args...)
	os.Exit(1)
}
