// OLAP example: associative-function mode over a 3-d fact table
// (order_day, customer_segment, unit_price) — the "database applications"
// use case of the paper's introduction. One prepared annotation per
// measure answers whole batches of box predicates with semigroup folds,
// without ever materializing the matching rows.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro"
)

func main() {
	const n, p = 30000, 8
	rng := rand.New(rand.NewSource(11))

	// Fact rows: day ∈ [0,365), segment score ∈ [0,100), price.
	raw := make([][]float64, n)
	revenue := make([]float64, n)
	for i := range raw {
		day := rng.Float64() * 365
		segment := rng.Float64() * 100
		price := 5 + rng.ExpFloat64()*40
		raw[i] = []float64{day, segment, price}
		revenue[i] = price * float64(1+rng.Intn(5)) // price × quantity
	}
	pts, norm := drtree.Normalize(raw)

	mach := drtree.NewMachine(drtree.MachineConfig{P: p})
	tree := drtree.BuildDistributed(mach, pts)

	// Two prepared measures over the same tree: total revenue (sum
	// semigroup) and best single sale (max semigroup).
	sumRevenue := drtree.PrepareAssociative(tree, drtree.FloatSum(),
		func(pt drtree.Point) float64 { return revenue[pt.ID] })
	maxSale := drtree.PrepareAssociative(tree, drtree.MaxFloat(),
		func(pt drtree.Point) float64 { return revenue[pt.ID] })
	countRows := drtree.PrepareAssociative(tree, drtree.IntSum(),
		func(drtree.Point) int64 { return 1 })

	// Quarterly × segment-band predicates: 4 quarters × 2 bands.
	type pred struct {
		name   string
		lo, hi []float64
	}
	var preds []pred
	for q := 0; q < 4; q++ {
		for _, band := range []struct {
			name   string
			lo, hi float64
		}{{"consumer", 0, 50}, {"enterprise", 50, 100}} {
			preds = append(preds, pred{
				name: fmt.Sprintf("Q%d/%s", q+1, band.name),
				lo:   []float64{float64(q) * 91.25, band.lo, 0},
				hi:   []float64{float64(q+1) * 91.25, band.hi, 1e9},
			})
		}
	}
	boxes := make([]drtree.Box, len(preds))
	for i, pr := range preds {
		boxes[i] = norm.Box(pr.lo, pr.hi)
	}

	mach.ResetMetrics()
	sums := sumRevenue.Batch(boxes)
	maxs := maxSale.Batch(boxes)
	counts := countRows.Batch(boxes)

	fmt.Printf("%-14s %10s %14s %12s\n", "predicate", "rows", "revenue", "max sale")
	for i, pr := range preds {
		fmt.Printf("%-14s %10d %14.2f %12.2f\n", pr.name, counts[i], sums[i], maxs[i])
	}
	mt := mach.Metrics()
	fmt.Printf("\n3 batches × %d predicates on p=%d: %d communication rounds total, max h %d\n",
		len(preds), p, mt.CommRounds(), mt.MaxH())

	// Self-check: every measure matches a linear scan of the same rows.
	// Sums fold in a different order, so they agree to rounding only.
	for i, b := range boxes {
		var rows int64
		sum, best := 0.0, math.Inf(-1)
		for _, pt := range pts {
			if b.Contains(pt) {
				rows++
				sum += revenue[pt.ID]
				best = max(best, revenue[pt.ID])
			}
		}
		if counts[i] != rows || maxs[i] != best || math.Abs(sums[i]-sum) > 1e-9*max(1, math.Abs(sum)) {
			fmt.Fprintf(os.Stderr, "mismatch: %s: rows %d, revenue %.2f, max %.2f; a linear scan finds %d, %.2f, %.2f\n",
				preds[i].name, counts[i], sums[i], maxs[i], rows, sum, best)
			os.Exit(1)
		}
	}
	fmt.Println("ok: every predicate matches a linear scan")
}
