package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// searchCost is what a batch costs the machine: communication rounds, the
// largest h of any round, and the elements exchanged over all rounds.
type searchCost struct{ rounds, maxH, volume int }

func (c searchCost) String() string {
	return fmt.Sprintf("%d rounds, max h %d, volume %d", c.rounds, c.maxH, c.volume)
}

// TestSearchGolden pins the exact cost of Algorithm Search per result mode
// on one fixed shape (4 096 clustered points, 128 boxes at selectivity
// 0.01, p = 4), on fabric and resident loopback alike. CountBatch,
// AggHandle.Batch and ReportBatch are one-kind MixedBatch calls, so a
// MixedBatch holding only one kind must cost exactly what that mode costs:
// phase D carries a kind's rows only when the batch holds the kind. A
// batch runs 3 rounds (demand, copies with the routed subqueries, the
// phase-D partials), 4 when it holds a report (the pairs); the volume is
// what the separate collectives moved, to the element. Two count rows pin
// phase B's plan where plans differ, cold: a hot spot on the same shape
// (all 128 boxes equal, so the hot owner gets c_j = p copies) and broad
// boxes (selectivity 0.2) on a wider one (d = 3, p = 8, m = 2 048), where
// a copy of a part is far from all of it. Every copy is one row of the
// route round, so the volume counts the elements copied, and the copies
// held are pinned beside it: 3 and 40, where copying whole parts held 9
// and 100, and the per-element ablation 3 and 6.
func TestSearchGolden(t *testing.T) {
	const n, d, p, m = 4096, 2, 4, 128
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 3})
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.01, Seed: 4})
	want := map[string]searchCost{
		"CountBatch":                 {3, 63, 401},
		"AggHandle.Batch":            {3, 63, 401},
		"ReportBatch":                {4, 2300, 5666},
		"MixedBatch/all":             {4, 610, 1969},
		"MixedBatch/count+aggregate": {3, 63, 401},
		"MixedBatch/count+report":    {4, 952, 2644},
		"hot spot":                   {3, 35, 275},
		"broad":                      {3, 1541, 18459},
	}
	wantCopies := map[string]int{"hot spot": 3, "broad": 40}
	hot := make([]geom.Box, m)
	for i := range hot {
		hot[i] = boxes[0]
	}
	const bd, bp, bm = 3, 8, 2048
	broadPts := workload.Points(workload.PointSpec{N: n, Dims: bd, Dist: workload.Clustered, Seed: 3})
	broad := workload.Boxes(workload.QuerySpec{M: bm, Dims: bd, N: n, Selectivity: 0.2, Seed: 5})
	// Each one-kind MixedBatch row must equal its mode's row.
	sameAs := map[core.MixedOp]string{
		core.OpCount:     "CountBatch",
		core.OpAggregate: "AggHandle.Batch",
		core.OpReport:    "ReportBatch",
	}
	uniform := func(op core.MixedOp) []core.MixedOp {
		ops := make([]core.MixedOp, m)
		for i := range ops {
			ops[i] = op
		}
		return ops
	}
	cycling := make([]core.MixedOp, m)
	for i := range cycling {
		cycling[i] = core.MixedOp(i % 3)
	}
	// Two kinds alternating: count with op, the second kind.
	pair := func(op core.MixedOp) []core.MixedOp {
		ops := make([]core.MixedOp, m)
		for i := 1; i < m; i += 2 {
			ops[i] = op
		}
		return ops
	}

	for _, resident := range []bool{false, true} {
		t.Run(fmt.Sprintf("resident=%t", resident), func(t *testing.T) {
			// Every row runs cold: the trees cache no copies, so no demand
			// round advertises one and no row's volume depends on the rows
			// before it.
			mach := cgm.New(cgm.Config{P: p, Resident: resident})
			tree := core.Build(mach, pts)
			tree.SetCopyCacheCap(-1)
			h := core.PrepareAssociativeNamed[float64](tree, "test/weight-sum")
			measure := func(batch func([]geom.Box)) searchCost {
				mach.ResetMetrics()
				batch(boxes)
				mt := mach.Metrics()
				return searchCost{mt.CommRounds(), mt.MaxH(), mt.TotalComm()}
			}
			check := func(name string, got, want searchCost) {
				t.Helper()
				t.Logf("%-20s %v", name, got)
				if got != want {
					t.Errorf("%s: %v, want %v", name, got, want)
				}
			}
			check("CountBatch", measure(func(b []geom.Box) { tree.CountBatch(b) }), want["CountBatch"])
			check("AggHandle.Batch", measure(func(b []geom.Box) { h.Batch(b) }), want["AggHandle.Batch"])
			check("ReportBatch", measure(func(b []geom.Box) { tree.ReportBatch(b) }), want["ReportBatch"])
			check("MixedBatch/all", measure(func(b []geom.Box) { core.MixedBatch(tree, h, cycling, b) }), want["MixedBatch/all"])
			for _, op := range []core.MixedOp{core.OpAggregate, core.OpReport} {
				name, ops := "MixedBatch/count+"+op.String(), pair(op)
				check(name, measure(func(b []geom.Box) { core.MixedBatch(tree, h, ops, b) }), want[name])
			}
			for _, op := range []core.MixedOp{core.OpCount, core.OpAggregate, core.OpReport} {
				ops := uniform(op)
				got := measure(func(b []geom.Box) { core.MixedBatch(tree, h, ops, b) })
				check("MixedBatch/"+op.String(), got, want[sameAs[op]])
			}
			broadMach := cgm.New(cgm.Config{P: bp, Resident: resident})
			broadTree := core.Build(broadMach, broadPts)
			broadTree.SetCopyCacheCap(-1)
			for _, row := range []struct {
				name string
				mach *cgm.Machine
				tree *core.Tree
				b    []geom.Box
			}{{"hot spot", mach, tree, hot}, {"broad", broadMach, broadTree, broad}} {
				row.mach.ResetMetrics()
				row.tree.CountBatch(row.b)
				mt := row.mach.Metrics()
				check(row.name, searchCost{mt.CommRounds(), mt.MaxH(), mt.TotalComm()}, want[row.name])
				held := 0
				for _, st := range row.tree.LastSearchStats() {
					held += st.CopiesHeld
				}
				if held != wantCopies[row.name] {
					t.Errorf("%s: %d copies held, want %d", row.name, held, wantCopies[row.name])
				}
			}
		})
	}
}
