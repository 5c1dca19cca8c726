package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// TestMixedBatchMatchesModes drives all three modes through one machine
// run and checks every answer against the brute-force oracle.
func TestMixedBatchMatchesModes(t *testing.T) {
	n, d, p := 1<<10, 2, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 7})
	mach := cgm.New(cgm.Config{P: p})
	tree := Build(mach, pts)
	h := PrepareAssociative(tree, semigroup.FloatSum(), workload.WeightOf)
	bf := brute.New(pts)

	boxes := workload.Boxes(workload.QuerySpec{M: 120, Dims: d, N: n, Selectivity: 0.02, Seed: 3})
	ops := make([]MixedOp, len(boxes))
	for i := range ops {
		ops[i] = MixedOp(i % 3)
	}

	mach.ResetMetrics()
	results := MixedBatch(tree, h, ops, boxes)
	if runs := mach.Metrics().Runs; runs != 1 {
		t.Fatalf("mixed batch took %d machine runs, want 1", runs)
	}

	for i, r := range results {
		switch ops[i] {
		case OpCount:
			if want := int64(bf.Count(boxes[i])); r.Count != want {
				t.Fatalf("query %d count = %d, want %d", i, r.Count, want)
			}
		case OpAggregate:
			want := brute.Aggregate(bf, semigroup.FloatSum(), workload.WeightOf, boxes[i])
			if diff := r.Agg - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("query %d agg = %v, want %v", i, r.Agg, want)
			}
		case OpReport:
			got := brute.IDs(r.Pts)
			want := brute.IDs(bf.Report(boxes[i]))
			if len(got) != len(want) {
				t.Fatalf("query %d report has %d points, want %d", i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("query %d report point %d = %d, want %d", i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestMixedBatchNoAggHandle covers the count/report-only path with a nil
// handle (the engine's configuration without PrepareAssociative).
func TestMixedBatchNoAggHandle(t *testing.T) {
	n := 512
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 5})
	mach := cgm.New(cgm.Config{P: 4})
	tree := Build(mach, pts)
	bf := brute.New(pts)

	boxes := workload.Boxes(workload.QuerySpec{M: 40, Dims: 2, N: n, Selectivity: 0.05, Seed: 9})
	ops := make([]MixedOp, len(boxes))
	for i := range ops {
		if i%2 == 0 {
			ops[i] = OpCount
		} else {
			ops[i] = OpReport
		}
	}
	results := MixedBatch[struct{}](tree, nil, ops, boxes)
	for i, r := range results {
		if ops[i] == OpCount {
			if want := int64(bf.Count(boxes[i])); r.Count != want {
				t.Fatalf("query %d count = %d, want %d", i, r.Count, want)
			}
		} else if want := bf.Count(boxes[i]); len(r.Pts) != want {
			t.Fatalf("query %d reported %d points, want %d", i, len(r.Pts), want)
		}
	}
}

// TestMixedRejectsUnknownOp: an op outside the three kinds, or a box of
// the wrong dimensionality, is refused before the run, naming the query,
// on fabric and resident trees alike, and the tree serves on afterwards.
func TestMixedRejectsUnknownOp(t *testing.T) {
	const n, m, bad = 512, 16, 5
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 3})
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.05, Seed: 4})
	bf := brute.New(pts)
	for _, resident := range []bool{false, true} {
		tree := Build(cgm.New(cgm.Config{P: 4, Resident: resident}), pts)
		for _, op := range []MixedOp{3, -1} {
			ops := make([]MixedOp, m)
			ops[bad] = op
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("query %d has unknown op %v", bad, op); !strings.Contains(msg, want) {
						t.Errorf("resident=%t op %d: MixedBatch panicked with %q, want it to name %q", resident, op, msg, want)
					}
				}()
				MixedBatch[struct{}](tree, nil, ops, boxes)
			}()
		}
		func() {
			wrong := slices.Clone(boxes)
			wrong[bad] = geom.NewBox([]geom.Coord{0, 0, 0}, []geom.Coord{9, 9, 9})
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("query %d has 3 dims, tree has 2", bad); !strings.Contains(msg, want) {
					t.Errorf("resident=%t: a 3-d box panicked with %q, want it to name %q", resident, msg, want)
				}
			}()
			MixedBatch[struct{}](tree, nil, make([]MixedOp, m), wrong)
		}()
		for i, got := range tree.CountBatch(boxes) {
			if want := int64(bf.Count(boxes[i])); got != want {
				t.Fatalf("resident=%t: after the refused batch, query %d counts %d, want %d", resident, i, got, want)
			}
		}
	}
}

// scrambledIDs relabels pts with distinct IDs drawn over the whole int32
// range — about half negative, both extremes among them — and dealt to
// the points in random order.
func scrambledIDs(pts []geom.Point, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	ids := []int32{math.MinInt32, math.MaxInt32, -1, 0}
	seen := map[int32]bool{math.MinInt32: true, math.MaxInt32: true, -1: true, 0: true}
	for len(ids) < len(pts) {
		if id := int32(rng.Uint32()); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	out := make([]geom.Point, len(pts))
	for i, pt := range pts {
		out[i] = geom.Point{ID: ids[i], X: pt.X}
	}
	return out
}

// TestMixedBatchReportsInIDOrder pins the report contract on
// MixedResult.Pts: every group is in ascending point ID, on fabric and
// resident trees alike, whatever the IDs are.
func TestMixedBatchReportsInIDOrder(t *testing.T) {
	const n, m = 2048, 60
	pts := scrambledIDs(workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 8}), 8)
	bf := brute.New(pts)
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.05, Seed: 8})
	boxes = append(boxes, geom.NewBox([]geom.Coord{0, 0}, []geom.Coord{n, n})) // every point
	ops := make([]MixedOp, len(boxes))
	for i := range ops {
		if i%3 != 0 {
			ops[i] = OpReport
		}
	}
	for _, resident := range []bool{false, true} {
		tree := Build(cgm.New(cgm.Config{P: 4, Resident: resident}), pts)
		for i, r := range MixedBatch[struct{}](tree, nil, ops, boxes) {
			if ops[i] != OpReport {
				continue
			}
			if !slices.IsSortedFunc(r.Pts, func(a, b geom.Point) int { return cmp.Compare(a.ID, b.ID) }) {
				t.Fatalf("resident=%t: query %d's %d points are not in ID order", resident, i, len(r.Pts))
			}
			if got, want := brute.IDs(r.Pts), brute.IDs(bf.Report(boxes[i])); !slices.Equal(got, want) {
				t.Fatalf("resident=%t: query %d reported IDs %v, want %v", resident, i, got, want)
			}
			if i == m && len(r.Pts) != n {
				t.Fatalf("resident=%t: the box around every point reported %d of %d", resident, len(r.Pts), n)
			}
		}
	}
}
