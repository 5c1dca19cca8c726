//go:build !race

package transport_test

import (
	"testing"

	"repro/internal/aggregates"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestTCPBatchAllocBudget ratchets what a warm resident batch allocates
// over TCP: one core.MixedBatch of 256 count/aggregate/report boxes on 4
// in-process workers, counted process-wide, so the coordinator's frames,
// the workers' supersteps and the mesh are all in it. It measures 588 on
// every run and GOMAXPROCS from 1 to 8 (856 before served report hits
// travelled as one pointer-free hit block); the budget keeps 82 above
// that, the 14 % headroom it kept over 856.
func TestTCPBatchAllocBudget(t *testing.T) {
	const p, n, m = 4, 1 << 14, 256
	cl := startCluster(t, p, cgm.Config{Resident: true})
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
	tree, err := core.BuildOn(cl, pts, core.BackendLayered)
	if err != nil {
		t.Fatal(err)
	}
	h := core.PrepareAssociativeNamed[float64](tree, aggregates.WeightSum)
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.002, Seed: 11})
	ops := make([]core.MixedOp, m)
	for i := range ops {
		ops[i] = core.MixedOp(i % 3)
	}
	for range 3 { // warm the copy caches, the arenas and the intern tables
		core.MixedBatch(tree, h, ops, boxes)
	}
	got := testing.AllocsPerRun(50, func() { core.MixedBatch(tree, h, ops, boxes) })
	t.Logf("%.0f allocations per batch of %d (%.2f per query; budget %d)", got, m, got/m, tcpBatchBudget)
	if got > tcpBatchBudget {
		t.Errorf("%.0f allocations per batch, budget %d", got, tcpBatchBudget)
	}
}

const tcpBatchBudget = 670
