package drtree_test

import (
	"fmt"
	"sync"

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

// ExampleMixedBatch answers count, aggregate and report queries in one
// machine run: each query's op picks the field of its result.
func ExampleMixedBatch() {
	pts := drtree.RankNormalize([]drtree.Point{
		{ID: 0, X: []drtree.Coord{1, 4}},
		{ID: 1, X: []drtree.Coord{2, 3}},
		{ID: 2, X: []drtree.Coord{3, 2}},
		{ID: 3, X: []drtree.Coord{4, 1}},
	})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 2})
	tree := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociative(tree, drtree.IntSum(),
		func(p drtree.Point) int64 { return 10 * int64(p.ID) })

	q := drtree.NewBox([]drtree.Coord{1, 1}, []drtree.Coord{3, 3})
	ops := []drtree.QueryOp{drtree.OpCount, drtree.OpAggregate, drtree.OpReport}
	var res []drtree.MixedResult[int64] = drtree.MixedBatch(tree, h, ops, []drtree.Box{q, q, q})
	fmt.Println("count", res[0].Count)
	fmt.Println("sum", res[1].Agg)
	for _, p := range res[2].Pts {
		fmt.Println("point", p.ID)
	}
	// Output:
	// count 2
	// sum 30
	// point 1
	// point 2
}

// ExampleNewEngine serves single queries from many goroutines: the engine
// gathers them into batches, one machine run each.
func ExampleNewEngine() {
	pts := drtree.GeneratePoints(drtree.PointSpec{N: 256, Dims: 2, Dist: drtree.Uniform, Seed: 1})
	tree := drtree.BuildDistributed(drtree.NewMachine(drtree.MachineConfig{P: 4}), pts)
	eng := drtree.NewEngine(tree, drtree.EngineConfig{BatchSize: 8})
	defer eng.Close()

	// Four x-slabs of 64 ranks each, over the whole y range.
	counts := make([]int64, 4)
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := drtree.Coord(64*i + 1)
			q := drtree.NewBox([]drtree.Coord{lo, 1}, []drtree.Coord{lo + 63, 256})
			n, err := eng.Count(q)
			if err != nil {
				fmt.Println(err)
			}
			counts[i] = n
		}()
	}
	wg.Wait()
	fmt.Println(counts)

	hits, err := eng.Report(drtree.NewBox([]drtree.Coord{1, 1}, []drtree.Coord{64, 256}))
	if err != nil {
		fmt.Println(err)
	}
	fmt.Println(len(hits))
	// Output:
	// [64 64 64 64]
	// 64
}

// init registers the aggregate ExamplePrepareAssociativeNamed serves.
// Registration happens once per process, from an init function, so that
// the coordinator and every worker binary resolve the name to the same
// code.
func init() {
	drtree.RegisterAggregate("example/weight-sum", drtree.IntSum(),
		func(p drtree.Point) int64 { return 10 * int64(p.ID) })
}

// ExamplePrepareAssociativeNamed runs the associative-function mode on a
// resident machine, whose ranks hold the forest elements: an inline
// monoid cannot reach them, so the aggregate is registered by name and
// prepared where the elements live.
func ExamplePrepareAssociativeNamed() {
	pts := drtree.RankNormalize([]drtree.Point{
		{ID: 0, X: []drtree.Coord{1}},
		{ID: 1, X: []drtree.Coord{2}},
		{ID: 2, X: []drtree.Coord{3}},
	})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 2, Resident: true})
	tree := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociativeNamed[int64](tree, "example/weight-sum")

	q := drtree.NewBox([]drtree.Coord{2}, []drtree.Coord{3})
	fmt.Println(h.Batch([]drtree.Box{q})[0])
	// Output: 30
}
