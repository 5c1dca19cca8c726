package core_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/pointsfile"
	"repro/internal/workload"
)

// TestWorkerFedConstructEquivalence: a held construction — input staged
// in the workers, sample sort and routing run as resident steps, which is
// how every resident machine builds — must produce identical answers AND
// identical round/h/volume metrics to the fabric build of the same points.
func TestWorkerFedConstructEquivalence(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, d := range []int{2, 3} {
			t.Run(fmt.Sprintf("p=%d/d=%d", p, d), func(t *testing.T) {
				n, m := 400, 40
				pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 7})
				coordM := cgm.New(cgm.Config{P: p})
				heldM := cgm.New(cgm.Config{P: p, Resident: true})
				coord := core.Build(coordM, pts)
				held := core.Build(heldM, pts)
				if err := held.Verify(); err != nil {
					t.Fatalf("worker-fed tree fails Verify: %v", err)
				}
				assertSameMetrics(t, "construct", coordM.Metrics(), heldM.Metrics())

				boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.08, Seed: 3})
				cc, hc := coord.CountBatch(boxes), held.CountBatch(boxes)
				for i := range cc {
					if cc[i] != hc[i] {
						t.Fatalf("count %d: coordinator-fed %d worker-fed %d", i, cc[i], hc[i])
					}
				}
				cr, hr := coord.ReportBatch(boxes), held.ReportBatch(boxes)
				for i := range cr {
					if len(cr[i]) != len(hr[i]) {
						t.Fatalf("report %d: coordinator-fed %d pts, worker-fed %d", i, len(cr[i]), len(hr[i]))
					}
					for j := range cr[i] {
						if cr[i][j].ID != hr[i][j].ID {
							t.Fatalf("report %d pt %d: id %d vs %d", i, j, cr[i][j].ID, hr[i][j].ID)
						}
					}
				}
			})
		}
	}
}

// TestBulkLoadStreaming: chunked round-robin streaming (an arbitrary
// initial distribution) must converge to the same answers as a
// coordinator-fed build; the sample sort normalizes the placement.
func TestBulkLoadStreaming(t *testing.T) {
	n, d, p := 500, 2, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 11})
	refM := cgm.New(cgm.Config{P: p})
	ref := core.Build(refM, pts)

	for _, chunk := range []int{37, 5000} {
		ldM := cgm.New(cgm.Config{P: p, Resident: true})
		ld, err := core.BulkLoad(ldM, core.SliceChunks(pts, chunk), core.IngestConfig{Window: 2})
		if err != nil {
			t.Fatalf("chunk=%d: BulkLoad: %v", chunk, err)
		}
		if err := ld.Verify(); err != nil {
			t.Fatalf("chunk=%d: bulk-loaded tree fails Verify: %v", chunk, err)
		}
		boxes := workload.Boxes(workload.QuerySpec{M: 40, Dims: d, N: n, Selectivity: 0.1, Seed: 5})
		want, got := ref.CountBatch(boxes), ld.CountBatch(boxes)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunk=%d count %d: want %d got %d", chunk, i, want[i], got[i])
			}
		}
	}
}

// TestBulkLoadFile: rank-local file ingest (one shard per rank) answers
// like an in-memory build.
func TestBulkLoadFile(t *testing.T) {
	n, d, p := 300, 2, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 19})
	dir := t.TempDir()
	shards := make([]string, p)
	blocks := core.CanonicalBlocks(pts, p)
	for rank := range shards {
		shards[rank] = filepath.Join(dir, fmt.Sprintf("shard-%d.drpf", rank))
		if err := pointsfile.Save(shards[rank], blocks[rank]); err != nil {
			t.Fatal(err)
		}
	}

	refM := cgm.New(cgm.Config{P: p})
	ref := core.Build(refM, pts)
	boxes := workload.Boxes(workload.QuerySpec{M: 30, Dims: d, N: n, Selectivity: 0.1, Seed: 23})
	want := ref.CountBatch(boxes)

	shM := cgm.New(cgm.Config{P: p, Resident: true})
	sh, err := core.BulkLoadFiles(shM, shards)
	if err != nil {
		t.Fatalf("BulkLoadFiles: %v", err)
	}
	gotSh := sh.CountBatch(boxes)
	for i := range want {
		if gotSh[i] != want[i] {
			t.Fatalf("shard count %d: want %d got %d", i, want[i], gotSh[i])
		}
	}
}

// TestBulkLoadEquivalence: a fabric and a resident machine that bulk-load
// the same input — a 500-point stream in 37-point chunks, and four
// uneven shard files — stage the same block on every rank (chunks in
// arrival order, shard r on rank r), so Construct starts from the same
// blocks and both residencies build the same tree: identical answers and
// identical construct Metrics (label, max h and volume per round).
func TestBulkLoadEquivalence(t *testing.T) {
	n, d, p := 500, 2, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 11})
	dir := t.TempDir()
	shards := make([]string, p)
	cuts := []int{0, 23, 334, 431, n} // uneven on purpose: 23, 311, 97, 69
	for rank := range shards {
		shards[rank] = filepath.Join(dir, fmt.Sprintf("shard-%d.drpf", rank))
		if err := pointsfile.Save(shards[rank], pts[cuts[rank]:cuts[rank+1]]); err != nil {
			t.Fatal(err)
		}
	}
	boxes := workload.Boxes(workload.QuerySpec{M: 40, Dims: d, N: n, Selectivity: 0.1, Seed: 5})
	for _, c := range []struct {
		name string
		load func(*cgm.Machine) (*core.Tree, error)
	}{
		{"stream", func(m *cgm.Machine) (*core.Tree, error) {
			return core.BulkLoad(m, core.SliceChunks(pts, 37), core.IngestConfig{Window: 2})
		}},
		{"shards", func(m *cgm.Machine) (*core.Tree, error) {
			return core.BulkLoadFiles(m, shards)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fabM, resM := cgm.New(cgm.Config{P: p}), cgm.New(cgm.Config{P: p, Resident: true})
			fab, err := c.load(fabM)
			if err != nil {
				t.Fatalf("fabric load: %v", err)
			}
			res, err := c.load(resM)
			if err != nil {
				t.Fatalf("resident load: %v", err)
			}
			assertSameMetrics(t, "construct", fabM.Metrics(), resM.Metrics())
			fc, rc := fab.CountBatch(boxes), res.CountBatch(boxes)
			for i := range fc {
				if fc[i] != rc[i] {
					t.Fatalf("count %d: fabric %d resident %d", i, fc[i], rc[i])
				}
			}
			fr, rr := fab.ReportBatch(boxes), res.ReportBatch(boxes)
			for i := range fr {
				if len(fr[i]) != len(rr[i]) {
					t.Fatalf("report %d: fabric %d pts, resident %d", i, len(fr[i]), len(rr[i]))
				}
				for j := range fr[i] {
					if fr[i][j].ID != rr[i][j].ID {
						t.Fatalf("report %d pt %d: fabric id %d resident id %d", i, j, fr[i][j].ID, rr[i][j].ID)
					}
				}
			}
		})
	}
}

// TestPointsfileRoundTrip pins the on-disk format as the ingest path
// reads it: save, then read back points and dimensionality.
func TestPointsfileRoundTrip(t *testing.T) {
	pts := []geom.Point{
		{ID: 1, X: []geom.Coord{3, -4}},
		{ID: 2, X: []geom.Coord{0, 9}},
		{ID: 7, X: []geom.Coord{-100, 100}},
	}
	path := filepath.Join(t.TempDir(), "t.drpf")
	if err := pointsfile.Save(path, pts); err != nil {
		t.Fatal(err)
	}
	all, dims, err := pointsfile.Read(path)
	if err != nil || dims != 2 || len(all) != 3 || all[1].ID != 2 || all[1].X[1] != 9 || all[2].X[0] != -100 {
		t.Fatalf("Read: %v %d-dim (err=%v)", all, dims, err)
	}
}

// feedlessTransport is a resident transport that cannot open feeds: its
// steps all succeed with an empty reply, and no superstep ever runs.
type feedlessTransport struct{ p int }

func (ft feedlessTransport) P() int       { return ft.p }
func (ft feedlessTransport) Wire() bool   { return true }
func (ft feedlessTransport) Abort(string) {}
func (ft feedlessTransport) Reset() error { return nil }
func (ft feedlessTransport) Close() error { return nil }
func (ft feedlessTransport) Exchange(int, cgm.Deposit) (cgm.Column, error) {
	return cgm.Column{}, cgm.ErrAborted
}
func (ft feedlessTransport) ExchangeResident(int, cgm.ResidentDeposit) (cgm.ResidentReply, error) {
	return cgm.ResidentReply{}, cgm.ErrAborted
}
func (ft feedlessTransport) CallStep(int, exec.Ref, []byte) ([]byte, error) {
	return exec.Marshal(false), nil
}

// TestBulkLoadNeedsFeeds: there is one staging path onto a resident
// machine. A resident machine whose transport cannot open feeds fails a
// BulkLoad and a Build with OpenFeed's diagnostic — neither falls back to
// pushing chunks through the coordinator's control connections.
func TestBulkLoadNeedsFeeds(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 64, Dims: 2, Dist: workload.Uniform, Seed: 1})
	feedless := func() *cgm.Machine {
		return cgm.New(cgm.Config{Transport: feedlessTransport{p: 2}, Resident: true})
	}
	_, err := core.BulkLoad(feedless(), core.SliceChunks(pts, 16), core.IngestConfig{Window: 0})
	if err == nil || !strings.Contains(err.Error(), "does not support step feeds") {
		t.Fatalf("bulk load on a feedless resident machine: %v, want the OpenFeed diagnostic", err)
	}
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		core.Build(feedless(), pts)
		return nil
	}()
	if s, _ := msg.(string); !strings.Contains(s, "does not support step feeds") {
		t.Fatalf("build on a feedless resident machine: %v, want the OpenFeed diagnostic", msg)
	}
}
