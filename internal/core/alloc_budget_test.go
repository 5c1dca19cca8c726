//go:build !race

// Allocation counts say nothing about the product under the race
// detector, so the budgets exist only in non-race builds (CI runs them in
// their own step).

package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// budgetBatch is one MixedBatch shape of the allocation budget: m boxes,
// every fourth a report when reports is set, the rest counts (or
// aggregates, for the AggHandle rows).
func budgetBatch(m, n int, reports bool, rest core.MixedOp) ([]core.MixedOp, []geom.Box) {
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.002, Seed: int64(m)})
	ops := make([]core.MixedOp, m)
	for i := range ops {
		ops[i] = rest
		if reports && i%4 == 3 {
			ops[i] = core.OpReport
		}
	}
	return ops, boxes
}

// TestRunAllocBudget pins what a warm machine run allocates: the fixed
// part (m = 1) is the F of the serving stack's F/m + c allocations per
// query, and everything beyond it must be proportional to what the batch
// returns. The fabric m = 1 bound is the gate ROADMAP item 7 waits behind.
func TestRunAllocBudget(t *testing.T) {
	const n, p = 1 << 14, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 11})
	fab := core.Build(cgm.New(cgm.Config{P: p}), pts)
	res := core.Build(cgm.New(cgm.Config{P: p, Resident: true}), pts)
	agg := core.PrepareAssociative(fab, semigroup.FloatSum(), workload.WeightOf)

	type row struct {
		name    string
		run     func(ops []core.MixedOp, boxes []geom.Box)
		m       int
		reports bool
		rest    core.MixedOp
		budget  float64
	}
	fabric := func(ops []core.MixedOp, boxes []geom.Box) { core.MixedBatch[struct{}](fab, nil, ops, boxes) }
	resident := func(ops []core.MixedOp, boxes []geom.Box) { core.MixedBatch[struct{}](res, nil, ops, boxes) }
	handle := func(ops []core.MixedOp, boxes []geom.Box) { core.MixedBatch(fab, agg, ops, boxes) }
	rows := []row{
		{"fabric", fabric, 1, false, core.OpCount, fabricFixedBudget},
		{"fabric", fabric, 16, true, core.OpCount, fabricFixedBudget + 4*16},
		{"fabric", fabric, 64, true, core.OpCount, fabricFixedBudget + 4*64},
		{"agg", handle, 1, false, core.OpAggregate, fabricFixedBudget + 8},
		{"agg", handle, 16, true, core.OpAggregate, fabricFixedBudget + 8 + 4*16},
		{"agg", handle, 64, true, core.OpAggregate, fabricFixedBudget + 8 + 4*64},
		{"resident", resident, 1, false, core.OpCount, residentFixedBudget},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/m=%d", r.name, r.m), func(t *testing.T) {
			ops, boxes := budgetBatch(r.m, n, r.reports, r.rest)
			for i := 0; i < 3; i++ { // warm the copy caches and the arenas
				r.run(ops, boxes)
			}
			got := testing.AllocsPerRun(50, func() { r.run(ops, boxes) })
			t.Logf("%s m=%d: %.0f allocations per run (budget %.0f)", r.name, r.m, got, r.budget)
			if got > r.budget {
				t.Errorf("%s m=%d: %.0f allocations per run, budget %.0f", r.name, r.m, got, r.budget)
			}
		})
	}
}

// The fixed allocations of one warm MixedBatch on p = 4 loopback. Fabric
// measures 15 (results, queries, SearchStats, the mode and its closures,
// the report grouping's three vectors, one goroutine start per rank): the
// budget is the gate ROADMAP item 7 set, with room for the runtime's own
// noise. Resident measures 168 — what is left is the exec step codec and
// dispatch on the far side of the seam, which fabric does not run — and is
// pinned just above that.
const (
	fabricFixedBudget   = 24
	residentFixedBudget = 176
)
