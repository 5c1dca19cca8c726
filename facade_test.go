package drtree_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/kdtree"
	"repro/internal/layered"
	"repro/internal/rangetree"
)

// TestFacadeEndToEnd drives the whole public API surface the way the
// README shows it.
func TestFacadeEndToEnd(t *testing.T) {
	raw := [][]float64{
		{1.5, 9.0}, {2.5, 8.0}, {3.5, 7.0}, {4.5, 6.0},
		{5.5, 5.0}, {6.5, 4.0}, {7.5, 3.0}, {8.5, 2.0},
	}
	pts, norm := drtree.Normalize(raw)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 3})
	tree := drtree.BuildDistributed(mach, pts)
	if tree.N() != 8 || tree.Dims() != 2 || tree.P() != 3 {
		t.Fatalf("tree header wrong: n=%d d=%d p=%d", tree.N(), tree.Dims(), tree.P())
	}
	q := norm.Box([]float64{2.0, 3.5}, []float64{7.0, 8.5})
	counts := tree.CountBatch([]drtree.Box{q})
	// x∈[2,7], y∈[3.5,8.5] matches (2.5,8),(3.5,7),(4.5,6),(5.5,5),(6.5,4).
	if counts[0] != 5 {
		t.Errorf("count = %d, want 5", counts[0])
	}
	rep := tree.ReportBatch([]drtree.Box{q})
	if len(rep[0]) != int(counts[0]) {
		t.Errorf("report size %d vs count %d", len(rep[0]), counts[0])
	}
	h := drtree.PrepareAssociative(tree, drtree.IntSum(), func(drtree.Point) int64 { return 1 })
	if got := h.Batch([]drtree.Box{q})[0]; got != counts[0] {
		t.Errorf("associative count %d vs %d", got, counts[0])
	}
	if got := tree.SingleCount(q); got != counts[0] {
		t.Errorf("single count %d vs %d", got, counts[0])
	}
	if mach.Metrics().CommRounds() == 0 {
		t.Error("no rounds recorded")
	}
}

func TestFacadeSequentialAndBaselines(t *testing.T) {
	pts := drtree.GeneratePoints(drtree.PointSpec{N: 300, Dims: 2, Dist: drtree.Clustered, Seed: 5})
	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: 40, Dims: 2, N: 300, Selectivity: 0.05, Seed: 5})
	rt := rangetree.Build(pts)
	kd := kdtree.Build(pts)
	lt := layered.Build(pts)
	dom, err := drtree.BuildDominance(pts, drtree.IntSum(), func(drtree.Point) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	bf := brute.New(pts)
	agg := rangetree.NewAgg(rt, drtree.FloatSum(), func(p drtree.Point) float64 { return float64(p.ID) }).Query
	for _, q := range boxes {
		want := bf.Count(q)
		if rt.Count(q) != want || kd.Count(q) != want || lt.Count(q) != want {
			t.Fatalf("tree disagreement on %v", q)
		}
		if dom.Box(q) != int64(want) {
			t.Fatalf("dominance disagreement on %v", q)
		}
		wantSum := 0.0
		for _, p := range bf.Report(q) {
			wantSum += float64(p.ID)
		}
		if agg(q) != wantSum {
			t.Fatalf("aggregate disagreement on %v", q)
		}
	}
}

func TestFacadeDynamic(t *testing.T) {
	dyn, err := drtree.OpenStore("", drtree.StoreConfig{Dims: 2, P: 2, Sync: true, MemtableCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer dyn.Close()
	rng := rand.New(rand.NewSource(9))
	var all []drtree.Point
	for b := 0; b < 3; b++ {
		var batch []drtree.Point
		for i := 0; i < 50; i++ {
			batch = append(batch, drtree.Point{
				ID: int32(len(all) + i),
				X:  []drtree.Coord{drtree.Coord(rng.Intn(500)), drtree.Coord(rng.Intn(500))},
			})
		}
		if _, err := dyn.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	bf := brute.New(all)
	q := drtree.NewBox([]drtree.Coord{50, 50}, []drtree.Coord{400, 400})
	counts, err := dyn.CountBatch([]drtree.Box{q})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := counts[0], int64(bf.Count(q)); got != want {
		t.Errorf("dynamic count %d, want %d", got, want)
	}
	reports, err := dyn.ReportBatch([]drtree.Box{q})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs := brute.IDs(reports[0])
	wantIDs := brute.IDs(bf.Report(q))
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Error("dynamic report mismatch")
	}
}

func TestFacadeMeasuredMode(t *testing.T) {
	pts := drtree.GeneratePoints(drtree.PointSpec{N: 128, Dims: 2, Dist: drtree.Uniform, Seed: 1})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 4, Mode: cgm.Measured})
	tree := drtree.BuildDistributed(mach, pts)
	if tree.N() != 128 {
		t.Fatal("build failed in measured mode")
	}
	mt := mach.Metrics()
	if mt.TotalWork() <= 0 || mt.LocalWork() <= 0 {
		t.Error("measured mode produced no work accounting")
	}
	if mt.ModelTime(cgm.DefaultG, cgm.DefaultL) <= mt.LocalWork() {
		t.Error("model time must include communication terms")
	}
}
