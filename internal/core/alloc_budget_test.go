//go:build !race

// Allocation counts say nothing about the product under the race
// detector, so the budgets exist only in non-race builds (CI runs them in
// their own step).

package core_test

import (
	"fmt"
	"math/rand"
	"runtime"
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
	return shapedBatch(m, n, 0.002, reports, rest)
}

func shapedBatch(m, n int, sel float64, reports bool, rest core.MixedOp) ([]core.MixedOp, []geom.Box) {
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: sel, Seed: int64(m)})
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
		{"agg", handle, 1, false, core.OpAggregate, fabricFixedBudget},
		{"agg", handle, 16, true, core.OpAggregate, fabricFixedBudget + 4*16},
		{"agg", handle, 64, true, core.OpAggregate, fabricFixedBudget + 4*64},
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
// measures 1 — the results; the caller-side state is the tree's kept run
// frame and the ranks start from closures bound once — and the budget
// leaves room for the runtime's own noise, nothing more. Resident measures
// 101: what is left is the exec step codec and dispatch on the far side of
// the residency seam (ROADMAP item 2), which fabric does not run, pinned
// 39 above that.
const (
	fabricFixedBudget   = 4
	residentFixedBudget = 140
)

// TestConstructAllocBudget ratchets what Algorithm Construct allocates: a
// BuildOn of 4 096 clustered points on p = 4 loopback, bytes per built
// point and allocations per build. It measures 836–837 / 2 054 B/point
// (d = 2 / d = 3) and 959–968 / 6 231–6 233 allocations, with 40-byte
// records that name their tree by ordinal, a local radix sort of packed
// keys (two keys a record of scratch, which the forest part keeps across
// the phases) that then permutes the records in place, the merge into one
// scratch array, every record buffer sized once, cascade bridges kept as
// rank words (2 bits per entry per level), cascade index arrays on every
// other level (the levels between merge through one scratch array per
// element build), and each element's routed points gathered straight
// into the one columnar block its tree keeps. Index arrays on every level
// read 844–845 / 2 115 B/point and 953–964 / 6 215–6 222 allocations.
// An element that also kept a []geom.Point of its points, and a tree that
// cloned those headers and copied the coordinates again, read 1 008 /
// 2 441. Measured against a comparison-sort build of that layout (952 /
// 2 329), int32 bridge arrays read 978 / 2 480 B/point; records carrying
// a PathKey string 1 022 / 2 605; a sort that permutes into a fresh
// record block 1 098 / 2 720; buffers grown one append at a time 2 342 /
// 5 335 B/point and 1 456 / 7 152 allocations. One header slice per
// element on top of this build reads 940 / 2 307. The byte budgets sit
// 1.5–2 % above this build, so that fails them, as does any of the rest.
func TestConstructAllocBudget(t *testing.T) {
	const n, p, builds = 4096, 4, 3
	pv := cgm.NewLocalProvider(cgm.Config{P: p})
	for _, c := range []struct {
		d                  int
		bytesPerPt, allocs float64
	}{{2, 852, 1030}, {3, 2090, 6660}} {
		t.Run(fmt.Sprintf("d=%d", c.d), func(t *testing.T) {
			pts := workload.Points(workload.PointSpec{N: n, Dims: c.d, Dist: workload.Clustered, Seed: 3})
			build := func() {
				if _, err := core.BuildOn(pv, pts, core.BackendLayered); err != nil {
					t.Fatal(err)
				}
			}
			build() // warm the runtime's size classes and the machine code paths
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < builds; i++ {
				build()
			}
			runtime.ReadMemStats(&after)
			perPt := float64(after.TotalAlloc-before.TotalAlloc) / (builds * n)
			allocs := float64(after.Mallocs-before.Mallocs) / builds
			t.Logf("d=%d: %.0f B/point, %.0f allocations per build", c.d, perPt, allocs)
			if perPt > c.bytesPerPt {
				t.Errorf("d=%d: %.0f B allocated per built point, budget %.0f", c.d, perPt, c.bytesPerPt)
			}
			if allocs > c.allocs {
				t.Errorf("d=%d: %.0f allocations per build, budget %.0f", c.d, allocs, c.allocs)
			}
		})
	}
}

// TestArenaKeepsRecurringShapes: a serving machine's batches are mostly
// one or two counts with a report every so often, and the slabs only the
// report needs (its points, its pairs) must survive the runs between two
// of them. 200 warm runs of that mix re-make no slab: the arenas' capacity
// never moves, and the heap sees the results and nothing else.
func TestArenaKeepsRecurringShapes(t *testing.T) {
	const n, p, runs = 1 << 14, 4, 200
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 11})
	tree := core.Build(cgm.New(cgm.Config{P: p}), pts)
	type shape struct {
		ops   []core.MixedOp
		boxes []geom.Box
	}
	var counts [2]shape
	for i := range counts {
		counts[i].ops, counts[i].boxes = shapedBatch(1+i, n, 0.01, false, core.OpCount)
	}
	var report shape
	report.ops, report.boxes = shapedBatch(4, n, 0.01, true, core.OpCount)

	// The schedule: a report batch every 2–20 runs, counts in between.
	rng := rand.New(rand.NewSource(7))
	untilReport := 0
	returned := 0 // allocations the runs hand their caller
	step := func() {
		sh := counts[rng.Intn(2)]
		if untilReport == 0 {
			sh, untilReport = report, 2+rng.Intn(19)
		}
		untilReport--
		returned++ // the results
		for _, r := range core.MixedBatch[struct{}](tree, nil, sh.ops, sh.boxes) {
			if len(r.Pts) > 0 {
				returned++
			}
		}
	}
	for i := 0; i < 40; i++ { // every shape a few times: slabs sized, copy caches warm
		step()
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	held := tree.Machine().ArenaBytes()
	returned = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
		if got := tree.Machine().ArenaBytes(); got != held {
			t.Fatalf("run %d resized the arenas: %d -> %d bytes", i, held, got)
		}
	}
	runtime.ReadMemStats(&after)
	got := int(after.Mallocs - before.Mallocs)
	t.Logf("%d runs: %d allocations, %d of them returned to the caller", runs, got, returned)
	// The slack is for the machine's round log, still doubling its way to
	// its cap this early in a machine's life; re-making the report's slabs
	// costs several allocations per report batch (579 over these 200 runs
	// under the decayed-peak trim this test replaced).
	if got > returned+runs/10 {
		t.Errorf("%d runs allocated %d times, %d beyond what they returned", runs, got, got-returned)
	}
}
