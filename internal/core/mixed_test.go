package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
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

// TestMixedRejectsUnknownOp: an op outside the three kinds is refused
// before the run, naming the query and the op, on fabric and resident
// trees alike, and the tree serves on afterwards.
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
		for i, got := range tree.CountBatch(boxes) {
			if want := int64(bf.Count(boxes[i])); got != want {
				t.Fatalf("resident=%t: after the refused batch, query %d counts %d, want %d", resident, i, got, want)
			}
		}
	}
}
