package drtree_test

import (
	"fmt"

	"repro"
)

// ExampleBuildDistributed shows the core pipeline: normalize raw data,
// construct the distributed range tree, answer a counting batch.
func ExampleBuildDistributed() {
	raw := [][]float64{
		{1, 10}, {2, 20}, {3, 30}, {4, 40},
		{5, 50}, {6, 60}, {7, 70}, {8, 80},
	}
	pts, norm := drtree.Normalize(raw)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 2})
	tree := drtree.BuildDistributed(mach, pts)

	q := norm.Box([]float64{2, 0}, []float64{6, 55}) // x∈[2,6], y≤55
	fmt.Println(tree.CountBatch([]drtree.Box{q})[0])
	// Output: 4
}

// ExampleTree_ReportBatch shows report mode: the matching points
// themselves, grouped per query.
func ExampleTree_ReportBatch() {
	pts := drtree.RankNormalize([]drtree.Point{
		{ID: 0, X: []drtree.Coord{1, 4}},
		{ID: 1, X: []drtree.Coord{2, 3}},
		{ID: 2, X: []drtree.Coord{3, 2}},
		{ID: 3, X: []drtree.Coord{4, 1}},
	})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 2})
	tree := drtree.BuildDistributed(mach, pts)

	q := drtree.NewBox([]drtree.Coord{1, 1}, []drtree.Coord{3, 3})
	for _, p := range tree.ReportBatch([]drtree.Box{q})[0] {
		fmt.Println(p.ID)
	}
	// Output:
	// 1
	// 2
}

// ExamplePrepareAssociative shows the associative-function mode with a
// custom semigroup (here: integer sum of per-point weights).
func ExamplePrepareAssociative() {
	pts := drtree.RankNormalize([]drtree.Point{
		{ID: 0, X: []drtree.Coord{1}},
		{ID: 1, X: []drtree.Coord{2}},
		{ID: 2, X: []drtree.Coord{3}},
	})
	weights := []int64{10, 20, 40}
	mach := drtree.NewMachine(drtree.MachineConfig{P: 2})
	tree := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociative(tree, drtree.IntSum(),
		func(p drtree.Point) int64 { return weights[p.ID] })

	q := drtree.NewBox([]drtree.Coord{2}, []drtree.Coord{3})
	fmt.Println(h.Batch([]drtree.Box{q})[0])
	// Output: 60
}

// ExampleBuildDominance shows footnote 2's special case: box sums for an
// invertible semigroup via dominance counting.
func ExampleBuildDominance() {
	pts := drtree.RankNormalize([]drtree.Point{
		{ID: 0, X: []drtree.Coord{1, 1}},
		{ID: 1, X: []drtree.Coord{2, 2}},
		{ID: 2, X: []drtree.Coord{3, 3}},
	})
	dom, err := drtree.BuildDominance(pts, drtree.IntSum(),
		func(drtree.Point) int64 { return 1 })
	if err != nil {
		fmt.Println(err)
		return
	}

	q := drtree.NewBox([]drtree.Coord{2, 1}, []drtree.Coord{3, 3})
	fmt.Println(dom.Box(q))
	// Output: 2
}
