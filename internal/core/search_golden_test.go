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
// what the separate collectives moved, to the element. The ElementLevel
// rows pin the finer balance granularity on the same shape: its demand
// round is sparse per element, so its volume differs, but its rounds do
// not.
func TestSearchGolden(t *testing.T) {
	const n, d, p, m = 4096, 2, 4, 128
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 3})
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.01, Seed: 4})
	want := map[string]searchCost{
		"CountBatch":                 {3, 65, 411},
		"AggHandle.Batch":            {3, 65, 411},
		"ReportBatch":                {4, 2300, 5676},
		"MixedBatch/all":             {4, 610, 1979},
		"MixedBatch/count+aggregate": {3, 65, 411},
		"MixedBatch/count+report":    {4, 952, 2654},
	}
	wantElem := map[string]searchCost{
		"CountBatch":     {3, 63, 401},
		"ReportBatch":    {4, 2300, 5666},
		"MixedBatch/all": {4, 610, 1969},
	}
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
			mach := cgm.New(cgm.Config{P: p, Resident: resident})
			tree := core.Build(mach, pts)
			h := core.PrepareAssociativeNamed[float64](tree, "test/weight-sum")
			// Every row runs cold: no copy cache advertised in its demand
			// round, so no row's volume depends on the rows before it.
			measure := func(batch func([]geom.Box)) searchCost {
				tree.InvalidateCopies()
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
			tree.SetBalanceMode(core.ElementLevel)
			check("ElementLevel/CountBatch", measure(func(b []geom.Box) { tree.CountBatch(b) }), wantElem["CountBatch"])
			check("ElementLevel/ReportBatch", measure(func(b []geom.Box) { tree.ReportBatch(b) }), wantElem["ReportBatch"])
			check("ElementLevel/MixedBatch/all", measure(func(b []geom.Box) { core.MixedBatch(tree, h, cycling, b) }), wantElem["MixedBatch/all"])
		})
	}
}
