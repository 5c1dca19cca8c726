// Quickstart: build a distributed range tree over a small 2-d point set,
// run one query in all three result modes, and print the machine metrics
// the CGM model is scored on.
package main

import (
	"fmt"
	"math"
	"os"

	"repro"
)

func main() {
	// Raw measurements: (temperature, humidity) readings.
	raw := [][]float64{
		{21.5, 40}, {19.0, 55}, {23.2, 38}, {25.1, 61},
		{18.4, 47}, {22.8, 52}, {20.0, 49}, {24.4, 44},
		{26.3, 58}, {17.9, 42}, {21.1, 63}, {23.9, 51},
	}
	// Rank-normalize (the paper's §3 assumption) and keep the normalizer
	// to translate raw query boxes.
	pts, norm := drtree.Normalize(raw)

	// A 4-processor coarse-grained multicomputer.
	mach := drtree.NewMachine(drtree.MachineConfig{P: 4})

	// Algorithm Construct (Theorem 2).
	tree := drtree.BuildDistributed(mach, pts)
	fmt.Printf("built: n=%d d=%d p=%d | hat %d nodes, forest %d elements, %d comm rounds\n",
		tree.N(), tree.Dims(), tree.P(), tree.HatNodeCount(), tree.ElemCount(),
		mach.Metrics().CommRounds())

	// Query: temperature in [20, 25] and humidity in [40, 55].
	q := norm.Box([]float64{20, 40}, []float64{25, 55})

	// Counting mode.
	counts := tree.CountBatch([]drtree.Box{q})
	fmt.Printf("count:  %d readings in range\n", counts[0])

	// Report mode.
	results := tree.ReportBatch([]drtree.Box{q})
	fmt.Printf("report: ")
	for _, p := range results[0] {
		fmt.Printf("(%.1f°C, %.0f%%) ", raw[p.ID][0], raw[p.ID][1])
	}
	fmt.Println()

	// Associative-function mode: mean temperature via a (count, sum)
	// product fold.
	type cs struct {
		C int
		S float64
	}
	h := drtree.PrepareAssociative(tree,
		drtree.Monoid[cs]{Combine: func(a, b cs) cs { return cs{a.C + b.C, a.S + b.S} }},
		func(p drtree.Point) cs { return cs{1, raw[p.ID][0]} })
	agg := h.Batch([]drtree.Box{q})[0]
	fmt.Printf("assoc:  mean temperature of matches = %.2f°C\n", agg.S/float64(agg.C))

	// Self-check: all three modes agree with a linear scan of the points.
	want, sum := 0, 0.0
	for _, p := range pts {
		if q.Contains(p) {
			want++
			sum += raw[p.ID][0]
		}
	}
	if counts[0] != int64(want) || len(results[0]) != want || agg.C != want || math.Abs(agg.S-sum) > 1e-9 {
		fmt.Fprintf(os.Stderr, "mismatch: count %d, report %d, assoc (%d, %.2f); a linear scan finds %d matches summing to %.2f\n",
			counts[0], len(results[0]), agg.C, agg.S, want, sum)
		os.Exit(1)
	}
	fmt.Println("ok: all three modes match a linear scan")
}
