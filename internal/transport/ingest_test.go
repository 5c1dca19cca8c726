package transport_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aggregates"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointsfile"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestWorkerFedEquivalence extends the cross-transport safety net to the
// ingest tentpole: a worker-fed build (points staged into the ranks, the
// whole construction run held in worker memory, as Build does on
// every resident machine) must produce identical answers AND identical
// round/h metrics to the loopback fabric build — on every cell of the
// {loopback, TCP} × {fabric, resident} matrix, plus the open-loop
// streaming client on the TCP resident cell.
func TestWorkerFedEquivalence(t *testing.T) {
	const p, n, m = 4, 500, 48
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.05, Seed: 11})

	// The coordinator-fed loopback fabric build is the baseline.
	base, err := core.BuildOn(cgm.NewLocalProvider(cgm.Config{P: p}), pts, core.BackendLayered)
	if err != nil {
		t.Fatal(err)
	}
	baseConstruct := base.Machine().Metrics() // before any search rounds fold in
	wantCount := base.CountBatch(boxes)
	wantRep := base.ReportBatch(boxes)

	check := func(t *testing.T, name string, tree *core.Tree, exactH bool) {
		t.Helper()
		if err := tree.Verify(); err != nil {
			t.Fatalf("%s fails Verify: %v", name, err)
		}
		if exactH {
			assertMetricsEqual(t, "construct", "coordinator-fed", name,
				baseConstruct, tree.Machine().Metrics())
		} else {
			// The streaming client stages chunks in arrival order, not the
			// canonical block distribution, so the first sort phase's h may
			// differ — but the ROUND STRUCTURE (count, labels, order) is an
			// algorithm property and must match exactly.
			got := tree.Machine().Metrics()
			if len(got.Rounds) != len(baseConstruct.Rounds) {
				t.Fatalf("%s folded %d construct rounds, coordinator-fed %d", name, len(got.Rounds), len(baseConstruct.Rounds))
			}
			for i := range got.Rounds {
				if got.Rounds[i].Label != baseConstruct.Rounds[i].Label {
					t.Fatalf("%s construct round %d is %q, coordinator-fed %q",
						name, i, got.Rounds[i].Label, baseConstruct.Rounds[i].Label)
				}
			}
		}
		got := tree.CountBatch(boxes)
		for q := range wantCount {
			if wantCount[q] != got[q] {
				t.Fatalf("%s count query %d: want %d, got %d", name, q, wantCount[q], got[q])
			}
		}
		gotRep := tree.ReportBatch(boxes)
		for q := range wantRep {
			if len(wantRep[q]) != len(gotRep[q]) {
				t.Fatalf("%s report query %d: want %d points, got %d", name, q, len(wantRep[q]), len(gotRep[q]))
			}
			for j := range wantRep[q] {
				if wantRep[q][j].ID != gotRep[q][j].ID {
					t.Fatalf("%s report query %d point %d: want id %d, got id %d",
						name, q, j, wantRep[q][j].ID, gotRep[q][j].ID)
				}
			}
		}
	}

	for _, v := range execVariants {
		t.Run(v.name, func(t *testing.T) {
			mach, err := v.provider(t, p).NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			check(t, v.name, core.Build(mach, pts), true)
		})
	}
	t.Run("tcp/resident/stream", func(t *testing.T) {
		cl := startCluster(t, p, cgm.Config{Resident: true})
		mach, err := cl.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		tree, err := core.BulkLoad(mach, core.SliceChunks(pts, 61), core.IngestConfig{Window: 2})
		if err != nil {
			t.Fatalf("streaming bulk load: %v", err)
		}
		check(t, "tcp/resident/stream", tree, false)
	})
}

// TestClusterIngestAndServeOnRawCodecs: a resident cluster bulk-ingests
// a stream and then serves all three result modes, and the raw codec
// carries its traffic. The wire counters are process-global, so this
// covers both the coordinator and the in-process workers.
func TestClusterIngestAndServeOnRawCodecs(t *testing.T) {
	const p, n, m = 4, 2000, 48
	cl := startCluster(t, p, cgm.Config{Resident: true})
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.05, Seed: 11})

	before := wire.Stats()

	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BulkLoad(mach, core.SliceChunks(pts, 256), core.IngestConfig{Window: 2})
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	h := core.PrepareAssociativeNamed[float64](tree, aggregates.WeightSum)
	ops := make([]core.MixedOp, m)
	for i := range ops {
		ops[i] = core.MixedOp(i % 3)
	}
	for range 3 {
		core.MixedBatch(tree, h, ops, boxes)
	}

	if after := wire.Stats(); after.RawEncBlocks == before.RawEncBlocks || after.RawDecBlocks == before.RawDecBlocks {
		t.Fatal("no raw blocks encoded or decoded — measurement is not observing the wire")
	}
}

// killSource streams chunks and kills a worker partway through the
// stream.
type killSource struct {
	src   core.ChunkSource
	after int
	kill  func()
	calls int
}

func (k *killSource) Next() ([]geom.Point, error) {
	k.calls++
	if k.calls == k.after && k.kill != nil {
		k.kill()
		k.kill = nil
		// Give the worker's listener time to tear its sessions down so
		// the in-flight window drains into a dead connection.
		time.Sleep(20 * time.Millisecond)
	}
	return k.src.Next()
}

// TestWorkerDeathMidIngestAborts is the ingest half of the fail-fast
// contract: killing a worker in the middle of an open-loop bulk load
// must surface as a prompt diagnostic error from BulkLoad — not a
// deadlocked feeder window — and the cluster must keep failing fast
// afterwards.
func TestWorkerDeathMidIngestAborts(t *testing.T) {
	const p, n = 4, 4000
	workers := make([]*transport.Worker, p)
	addrs := make([]string, p)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 3})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	src := &killSource{src: core.SliceChunks(pts, 64), after: 8, kill: func() { workers[2].Close() }}

	type result struct {
		tree *core.Tree
		err  error
	}
	done := make(chan result, 1)
	go func() {
		tree, err := core.BulkLoad(mach, src, core.IngestConfig{Window: 2})
		done <- result{tree, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bulk load deadlocked after losing a worker mid-stream")
	}
	if res.err == nil {
		t.Fatal("bulk load with a dead worker reported success")
	}
	t.Logf("diagnostic: %v", res.err)
	if !strings.Contains(res.err.Error(), "core: bulk") && !strings.Contains(res.err.Error(), "worker-fed build aborted") {
		t.Fatalf("error does not identify the ingest: %v", res.err)
	}

	// Fail fast on reuse: the cluster has lost a rank for good.
	start := time.Now()
	if _, err := cl.NewMachine(); err == nil {
		mach2, _ := cl.NewMachine()
		if mach2 != nil {
			if _, err := core.BulkLoad(mach2, core.SliceChunks(pts[:100], 32), core.IngestConfig{Window: 2}); err == nil {
				t.Fatal("second bulk load on a degraded cluster succeeded")
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("degraded cluster took %v to fail", elapsed)
	}
}

// TestFileIngestCoordinatorBytesIndependentOfN pins the O(p²) claim of
// worker-direct ingest: in a partitioned file load every rank reads its
// own shard, so the coordinator's connections carry only file paths, the
// p² sample-sort splitters and control frames — doubling n must not grow
// its traffic (1.002× when last recorded; a coordinator that shipped the
// points would read ≈ 2×).
func TestFileIngestCoordinatorBytesIndependentOfN(t *testing.T) {
	const p, n = 4, 1 << 12
	_, addrs := startWorkers(t, p)
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	coordBytes := func(n int) int64 {
		pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
		dir := t.TempDir()
		paths := make([]string, p)
		for r, blk := range core.CanonicalBlocks(pts, p) {
			paths[r] = filepath.Join(dir, fmt.Sprintf("shard-%d.drpf", r))
			if err := pointsfile.Save(paths[r], blk); err != nil {
				t.Fatal(err)
			}
		}
		mach, err := cl.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		outBefore, inBefore := cl.CoordBytes()
		tree, err := core.BulkLoadFiles(mach, paths)
		if err != nil {
			t.Fatalf("file load n=%d: %v", n, err)
		}
		out, in := cl.CoordBytes()
		if tree.N() != n {
			t.Fatalf("file load staged %d points, want %d", tree.N(), n)
		}
		tree.Machine().Close()
		return out - outBefore + in - inBefore
	}
	small, big := coordBytes(n), coordBytes(2*n)
	growth := float64(big) / float64(small)
	t.Logf("coordinator bytes: %d at n=%d, %d at n=%d (%.3fx)", small, n, big, 2*n, growth)
	if growth > 1.10 {
		t.Fatalf("coordinator traffic grew %.2fx when n doubled (%d → %d B): a file ingest must cost the coordinator O(p²), not O(n)",
			growth, small, big)
	}
}

// TestResidentBuildCoordinatorBytes: a resident Build stages the
// canonical blocks over the rank feeds — direct worker connections, off
// the coordinator's session connections — and runs the construction
// held, so the sorts and routing stay on the worker mesh and the
// session connections carry only control, samples and splitters. It
// reads 3.3 B/point; staging through synchronous step calls on the
// session connections read 20.4, and sending each phase's records
// through the coordinator ≈ 427.
func TestResidentBuildCoordinatorBytes(t *testing.T) {
	const p, n, d = 4, 8192, 3
	cl := startCluster(t, p, cgm.Config{Resident: true})
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 7})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64(0)
	for _, blk := range core.CanonicalBlocks(pts, p) {
		chunks += int64((len(blk) + core.DefaultChunk - 1) / core.DefaultChunk)
	}
	feedBefore := cl.WireStats()["feed_call"].Frames
	outBefore, inBefore := cl.CoordBytes()
	tree := core.Build(mach, pts)
	out, in := cl.CoordBytes()
	if tree.N() != n {
		t.Fatalf("built %d points, want %d", tree.N(), n)
	}
	if got := cl.WireStats()["feed_call"].Frames - feedBefore; got != chunks {
		t.Fatalf("the build sent %d feed calls, want one per chunk: %d", got, chunks)
	}
	perPt := float64(out-outBefore+in-inBefore) / n
	t.Logf("coordinator bytes: %d out, %d in, %.1f B/point", out-outBefore, in-inBefore, perPt)
	if perPt > 8 {
		t.Fatalf("a resident build moved %.1f coordinator bytes per point, budget 8: the points must stage over the rank feeds", perPt)
	}
}
