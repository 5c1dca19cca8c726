package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// keptBatch is everything batch k hands its caller, plus a deep copy taken
// the moment it returned.
type keptBatch struct {
	results, resultsCopy []core.MixedResult[float64]
	demand, demandCopy   []int
	stats, statsCopy     []core.SearchStats
}

func deepCopyResults(rs []core.MixedResult[float64]) []core.MixedResult[float64] {
	out := slices.Clone(rs)
	for i := range out {
		if out[i].Pts != nil {
			out[i].Pts = make([]geom.Point, len(rs[i].Pts))
			for j, p := range rs[i].Pts {
				out[i].Pts[j] = geom.Point{ID: p.ID, X: slices.Clone(p.X)}
			}
		}
	}
	return out
}

func sameResults(a, b []core.MixedResult[float64]) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results, copy has %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Agg != b[i].Agg || len(a[i].Pts) != len(b[i].Pts) {
			return fmt.Errorf("query %d changed: {%d %v %d pts}, copy {%d %v %d pts}",
				i, a[i].Count, a[i].Agg, len(a[i].Pts), b[i].Count, b[i].Agg, len(b[i].Pts))
		}
		for j := range a[i].Pts {
			if a[i].Pts[j].ID != b[i].Pts[j].ID || !slices.Equal(a[i].Pts[j].X, b[i].Pts[j].X) {
				return fmt.Errorf("query %d point %d changed: %v, copy %v", i, j, a[i].Pts[j], b[i].Pts[j])
			}
		}
	}
	return nil
}

// mixedOps cycles count / aggregate / report.
func mixedOps(m int) []core.MixedOp {
	ops := make([]core.MixedOp, m)
	for i := range ops {
		ops[i] = core.MixedOp(i % 3)
	}
	return ops
}

// TestRunArenaDoesNotLeakIntoResults: nothing a batch returns — results
// with their report points, LastDemand, LastSearchStats — may alias a run
// arena. Batch k's values are kept while batches k+1 … k+3 (other boxes,
// another m, another demand skew) recycle the arenas, then compared with
// the oracle and with their own deep copy. Run under -race in CI: an arena
// handed to two owners at once would also show as a data race here.
func TestRunArenaDoesNotLeakIntoResults(t *testing.T) {
	const n, d, p = 4096, 2, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 21})
	bf := brute.New(pts)
	for _, resident := range []bool{false, true} {
		t.Run(fmt.Sprintf("resident=%v", resident), func(t *testing.T) {
			mach := cgm.New(cgm.Config{P: p, Resident: resident})
			tree := core.Build(mach, pts)
			agg := core.PrepareAssociativeNamed[float64](tree, "test/weight-sum")

			run := func(m int, sel float64, foci int, seed int64) ([]core.MixedOp, []geom.Box, []core.MixedResult[float64]) {
				boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: sel, Foci: foci, Seed: seed})
				ops := mixedOps(m)
				return ops, boxes, core.MixedBatch(tree, agg, ops, boxes)
			}

			// Two warm-up batches so batch k runs on recycled arenas too.
			run(48, 0.02, 0, 1)
			run(48, 0.02, 0, 2)
			ops, boxes, results := run(60, 0.03, 0, 3)
			k := keptBatch{
				results: results, resultsCopy: deepCopyResults(results),
				demand: tree.LastDemand(), stats: tree.LastSearchStats(),
			}
			k.demandCopy, k.statsCopy = slices.Clone(k.demand), slices.Clone(k.stats)

			run(7, 0.2, 1, 4)     // tiny, everything on one hot spot
			run(200, 0.001, 2, 5) // large, two hot spots, small answers
			run(33, 0.1, 0, 6)    // uniform, large answers

			if err := sameResults(k.results, k.resultsCopy); err != nil {
				t.Fatalf("batch k's results changed under later batches: %v", err)
			}
			if !slices.Equal(k.demand, k.demandCopy) {
				t.Fatalf("batch k's LastDemand changed: %v, was %v", k.demand, k.demandCopy)
			}
			if !slices.Equal(k.stats, k.statsCopy) {
				t.Fatalf("batch k's LastSearchStats changed: %+v, was %+v", k.stats, k.statsCopy)
			}
			for i, r := range k.results {
				switch ops[i] {
				case core.OpCount:
					if want := int64(bf.Count(boxes[i])); r.Count != want {
						t.Fatalf("query %d count = %d, oracle %d", i, r.Count, want)
					}
				case core.OpAggregate:
					want := brute.Aggregate(bf, semigroup.FloatSum(), workload.WeightOf, boxes[i])
					if math.Abs(r.Agg-want) > 1e-6 {
						t.Fatalf("query %d aggregate = %v, oracle %v", i, r.Agg, want)
					}
				case core.OpReport:
					if got, want := brute.IDs(r.Pts), brute.IDs(bf.Report(boxes[i])); !slices.Equal(got, want) {
						t.Fatalf("query %d reports %d points, oracle %d", i, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestRunArenaTrimsAfterOutsizedBatch: one outsized batch must not pin its
// working set on a tree that goes back to serving small ones.
func TestRunArenaTrimsAfterOutsizedBatch(t *testing.T) {
	const n, d, p = 4096, 2, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 22})
	tree := core.Build(cgm.New(cgm.Config{P: p}), pts)
	batch := func(m int, seed int64) {
		boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.01, Seed: seed})
		core.MixedBatch[struct{}](tree, nil, mixedOps2(m), boxes)
	}
	for i := 0; i < 4; i++ {
		batch(16, int64(i))
	}
	small := tree.Machine().ArenaBytes()
	batch(4096, 99)
	batch(16, 100)
	big := tree.Machine().ArenaBytes()
	if big < 16*small {
		t.Fatalf("the outsized batch grew the arenas only %d -> %d bytes; the test is not exercising the trim", small, big)
	}
	// The arenas remember a run's need for at most two buckets of 64 runs.
	const after = 2*64 + 1
	for i := 0; i < after; i++ {
		batch(16, int64(200+i))
	}
	if got := tree.Machine().ArenaBytes(); got > 4*small {
		t.Errorf("%d small batches after an outsized one: arenas retain %d bytes (%d before it, %d right after)", after, got, small, big)
	}
}

// mixedOps2 alternates count and report (no handle needed).
func mixedOps2(m int) []core.MixedOp {
	ops := make([]core.MixedOp, m)
	for i := range ops {
		if i%4 == 3 {
			ops[i] = core.OpReport
		}
	}
	return ops
}
