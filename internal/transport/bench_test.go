package transport_test

import (
	"testing"

	"repro/internal/aggregates"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workload"
)

// BenchmarkClusterMixed serves mixed count/aggregate/report batches on a
// 4-worker localhost cluster in both execution modes. The interesting
// metric is coord-B/query — bytes crossing the coordinator's worker
// connections per query: in fabric mode every phase-B element copy and
// phase-C block transits the coordinator; in resident mode the forest
// lives in the workers and those payloads move only on the worker mesh,
// so the coordinator carries control frames, query boxes and result
// blocks. The acceptance bar is a clear drop of coordinator bytes/query
// in resident mode (asserted by TestResidentModeMovesBlocksOffCoordinator
// below).
func BenchmarkClusterMixed(b *testing.B) {
	for _, mode := range []struct {
		name     string
		resident bool
	}{{"fabric", false}, {"resident", true}} {
		b.Run(mode.name, func(b *testing.B) {
			const p, n, m = 4, 1 << 13, 64
			workers := make([]*transport.Worker, p)
			addrs := make([]string, p)
			for i := range workers {
				w, err := transport.ListenAndServe("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				workers[i] = w
				addrs[i] = w.Addr()
			}
			cl, err := transport.DialCluster(addrs, cgm.Config{Resident: mode.resident})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()

			pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
			tree, err := core.BuildOn(cl, pts, core.BackendLayered)
			if err != nil {
				b.Fatal(err)
			}
			h := core.PrepareAssociativeNamed[float64](tree, aggregates.WeightSum)
			boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.02, Seed: 11})
			ops := make([]core.MixedOp, m)
			for i := range ops {
				ops[i] = core.MixedOp(i % 3)
			}
			// Warm the copy caches so the steady state is measured.
			core.MixedBatch(tree, h, ops, boxes)

			outBefore, inBefore := cl.CoordBytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MixedBatch(tree, h, ops, boxes)
			}
			b.StopTimer()
			out, in := cl.CoordBytes()
			queries := float64(b.N * m)
			b.ReportMetric(float64(out-outBefore+in-inBefore)/queries, "coord-B/query")
			b.ReportMetric(queries/b.Elapsed().Seconds(), "q/s")
		})
	}
}

// clusterTraffic is the measurement behind the acceptance checks below:
// coordinator bytes per query over cold batches (copies invalidated
// before each, so phase B ships element blocks), plus the per-frame-kind
// deltas on the coordinator's connections and on the worker mesh.
type clusterTraffic struct {
	bytesPerQuery float64
	coord         map[string]transport.FrameStat // coordinator conns, cold batches
	mesh          map[string]transport.FrameStat // all workers' conns, cold batches
}

// statsDelta subtracts two WireStats snapshots kind by kind.
func statsDelta(before, after map[string]transport.FrameStat) map[string]transport.FrameStat {
	out := make(map[string]transport.FrameStat)
	for k, a := range after {
		d := transport.FrameStat{Frames: a.Frames - before[k].Frames, Bytes: a.Bytes - before[k].Bytes}
		if d.Frames != 0 || d.Bytes != 0 {
			out[k] = d
		}
	}
	return out
}

// statsSum folds several WireStats maps into one.
func statsSum(ms ...map[string]transport.FrameStat) map[string]transport.FrameStat {
	out := make(map[string]transport.FrameStat)
	for _, m := range ms {
		for k, s := range m {
			out[k] = transport.FrameStat{Frames: out[k].Frames + s.Frames, Bytes: out[k].Bytes + s.Bytes}
		}
	}
	return out
}

func measureClusterTraffic(tb testing.TB, resident bool, batches int) clusterTraffic {
	const p, n, m = 4, 1 << 12, 64
	workers := make([]*transport.Worker, p)
	addrs := make([]string, p)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: resident})
	if err != nil {
		tb.Fatal(err)
	}
	defer cl.Close()
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
	tree, err := core.BuildOn(cl, pts, core.BackendLayered)
	if err != nil {
		tb.Fatal(err)
	}
	// Every batch runs cold: a warm phase B ships ID-only references in
	// both modes, and the element blocks whose path the checks below are
	// about exist only when copies travel by value.
	tree.SetCopyCacheCap(-1)
	h := core.PrepareAssociativeNamed[float64](tree, aggregates.WeightSum)
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.02, Seed: 11})
	ops := make([]core.MixedOp, m)
	for i := range ops {
		ops[i] = core.MixedOp(i % 3)
	}
	core.MixedBatch(tree, h, ops, boxes) // first-use set-up (sessions, lazy state) stays out of the window
	outBefore, inBefore := cl.CoordBytes()
	coordBefore := cl.WireStats()
	meshBefores := make([]map[string]transport.FrameStat, p)
	for i, w := range workers {
		meshBefores[i] = w.WireStats()
	}
	for i := 0; i < batches; i++ {
		core.MixedBatch(tree, h, ops, boxes)
	}
	out, in := cl.CoordBytes()
	meshAfters := make([]map[string]transport.FrameStat, p)
	for i, w := range workers {
		meshAfters[i] = w.WireStats()
	}
	meshDeltas := make([]map[string]transport.FrameStat, p)
	for i := range meshDeltas {
		meshDeltas[i] = statsDelta(meshBefores[i], meshAfters[i])
	}
	return clusterTraffic{
		bytesPerQuery: float64(out-outBefore+in-inBefore) / float64(batches*m),
		coord:         statsDelta(coordBefore, cl.WireStats()),
		mesh:          statsSum(meshDeltas...),
	}
}

// TestResidentModeMovesBlocksOffCoordinator is the acceptance criterion
// as a test: resident mode must move at least the per-query phase-B/C
// block traffic off the coordinator — concretely, coordinator bytes per
// query must drop to well under half of fabric mode's, on batches whose
// copies travel by value (a warm batch ships references and has no such
// traffic to move). The per-kind wire stats pin down the mechanism, not
// just the total: resident mode serves queries inside the fused
// route-and-serve superstep
// (no step-frame dispatch round-trips at all), its deposits shrink to
// control + subquery payloads, and the block payload runs on the worker
// mesh in both modes.
func TestResidentModeMovesBlocksOffCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster traffic measurement")
	}
	fabric := measureClusterTraffic(t, false, 3)
	resident := measureClusterTraffic(t, true, 3)
	t.Logf("coordinator bytes/query: fabric %.0f, resident %.0f (%.1fx drop)",
		fabric.bytesPerQuery, resident.bytesPerQuery, fabric.bytesPerQuery/resident.bytesPerQuery)
	t.Logf("fabric coord frames: %+v", fabric.coord)
	t.Logf("resident coord frames: %+v", resident.coord)
	if resident.bytesPerQuery >= fabric.bytesPerQuery/2 {
		t.Fatalf("resident mode does not unload the coordinator: fabric %.0f B/query, resident %.0f B/query",
			fabric.bytesPerQuery, resident.bytesPerQuery)
	}
	// Mechanism: fabric steady state is pure deposit/column, never steps —
	// and so is resident steady state, now that phase C rides the route
	// superstep's collect instead of per-batch step dispatches.
	if fabric.coord["step"].Frames != 0 {
		t.Fatalf("fabric mode sent %d step frames", fabric.coord["step"].Frames)
	}
	if resident.coord["step"].Frames != 0 {
		t.Fatalf("resident steady state still dispatches steps: %d frames (serving should be fused into the route superstep)",
			resident.coord["step"].Frames)
	}
	// The coordinator's deposit payload must collapse in resident mode:
	// deposits still cross (one per superstep) but carry step references
	// and subqueries instead of element blocks.
	fdep, rdep := fabric.coord["deposit"], resident.coord["deposit"]
	if fdep.Bytes == 0 || rdep.Bytes >= fdep.Bytes/2 {
		t.Fatalf("resident deposits did not shrink: fabric %d B, resident %d B", fdep.Bytes, rdep.Bytes)
	}
	// The payload still moves — on the worker mesh, as block frames, in
	// both modes (fabric routes coordinator deposits peer-to-peer too).
	if fabric.mesh["block"].Frames == 0 || resident.mesh["block"].Frames == 0 {
		t.Fatalf("mesh block traffic missing: fabric %+v, resident %+v",
			fabric.mesh["block"], resident.mesh["block"])
	}
}
