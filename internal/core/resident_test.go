package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// The aggregate used across residency tests; registered once per process.
func init() {
	core.RegisterAggregate("test/weight-sum", semigroup.FloatSum(), workload.WeightOf)
}

// residentFixture builds twin trees — fabric and resident — on loopback
// machines over the same points.
type residentFixture struct {
	fab, res   *core.Tree
	fabM, resM *cgm.Machine
	pts        []geom.Point
}

func newResidentFixture(t *testing.T, n, d, p int, seed int64) *residentFixture {
	t.Helper()
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: seed})
	fabM := cgm.New(cgm.Config{P: p})
	resM := cgm.New(cgm.Config{P: p, Resident: true})
	fx := &residentFixture{
		fab:  core.Build(fabM, pts),
		res:  core.Build(resM, pts),
		fabM: fabM,
		resM: resM,
		pts:  pts,
	}
	return fx
}

func assertSameMetrics(t *testing.T, phase string, a, b cgm.Metrics) {
	t.Helper()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%s: fabric folded %d rounds, resident %d", phase, len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		x, y := a.Rounds[i], b.Rounds[i]
		if x.Label != y.Label || x.MaxH != y.MaxH || x.TotalElems != y.TotalElems || x.Final != y.Final {
			t.Fatalf("%s round %d diverges:\n  fabric   {%s h=%d vol=%d}\n  resident {%s h=%d vol=%d}",
				phase, i, x.Label, x.MaxH, x.TotalElems, y.Label, y.MaxH, y.TotalElems)
		}
	}
}

// TestResidentEquivalenceLoopback: the registered resident programs must
// produce identical answers AND identical round/h/volume metrics to the
// fabric pipeline, for construction and all result modes, across widths
// and dimensionalities.
func TestResidentEquivalenceLoopback(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, d := range []int{2, 3} {
			t.Run(fmt.Sprintf("p=%d/d=%d", p, d), func(t *testing.T) {
				n, m := 400, 40
				fx := newResidentFixture(t, n, d, p, 7)
				if err := fx.res.Verify(); err != nil {
					t.Fatalf("resident tree fails Verify: %v", err)
				}
				assertSameMetrics(t, "construct", fx.fabM.Metrics(), fx.resM.Metrics())
				fx.fabM.ResetMetrics()
				fx.resM.ResetMetrics()

				boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.08, Seed: 3})

				fc, rc := fx.fab.CountBatch(boxes), fx.res.CountBatch(boxes)
				for i := range fc {
					if fc[i] != rc[i] {
						t.Fatalf("count %d: fabric %d resident %d", i, fc[i], rc[i])
					}
				}

				fh := core.PrepareAssociativeNamed[float64](fx.fab, "test/weight-sum")
				rh := core.PrepareAssociativeNamed[float64](fx.res, "test/weight-sum")
				fa, ra := fh.Batch(boxes), rh.Batch(boxes)
				for i := range fa {
					if math.Abs(fa[i]-ra[i]) > 1e-9 {
						t.Fatalf("aggregate %d: fabric %v resident %v", i, fa[i], ra[i])
					}
				}

				fr, rr := fx.fab.ReportBatch(boxes), fx.res.ReportBatch(boxes)
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

				assertSameMetrics(t, "search", fx.fabM.Metrics(), fx.resM.Metrics())

				// A mixed batch.
				ops := make([]core.MixedOp, len(boxes))
				for i := range ops {
					ops[i] = core.MixedOp(i % 3)
				}
				fm := core.MixedBatch(fx.fab, fh, ops, boxes)
				rm := core.MixedBatch(fx.res, rh, ops, boxes)
				for i := range fm {
					switch ops[i] {
					case core.OpCount:
						if fm[i].Count != rm[i].Count {
							t.Fatalf("mixed count %d: %d vs %d", i, fm[i].Count, rm[i].Count)
						}
					case core.OpAggregate:
						if math.Abs(fm[i].Agg-rm[i].Agg) > 1e-9 {
							t.Fatalf("mixed agg %d: %v vs %v", i, fm[i].Agg, rm[i].Agg)
						}
					case core.OpReport:
						if len(fm[i].Pts) != len(rm[i].Pts) {
							t.Fatalf("mixed report %d: %d vs %d pts", i, len(fm[i].Pts), len(rm[i].Pts))
						}
					}
				}
			})
		}
	}
}

// copyVolume sums the most recent batch's phase-B copy volume over the
// processors: points shipped by value and points references stood in for.
func copyVolume(tree *core.Tree) (shipped, byRef int) {
	for _, st := range tree.LastSearchStats() {
		shipped += st.CopiedPoints
		byRef += st.ByRefPoints
	}
	return shipped, byRef
}

// TestResidentCopiesByReference drives the fabric and resident twins
// through a cold and a warm batch, then twins built with copy caching
// disabled through one more: identical answers and round/h/volume in
// every phase, nothing shipped by value warm (the cold volume goes by
// reference instead), and the cold volume again without a cache.
func TestResidentCopiesByReference(t *testing.T) {
	const n, d, p, m = 400, 2, 4, 96
	fx := newResidentFixture(t, n, d, p, 7)
	uncached := newResidentFixture(t, n, d, p, 7)
	uncached.fab.SetCopyCacheCap(-1)
	uncached.res.SetCopyCacheCap(-1)
	// Two hot spots: enough congestion that phase B copies.
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.02, Foci: 2, Theta: 1.5, Seed: 3})
	cold := 0
	for _, phase := range []struct {
		name string
		fx   *residentFixture
	}{{"cold", fx}, {"warm", fx}, {"uncached", uncached}} {
		name, fx := phase.name, phase.fx
		fx.fabM.ResetMetrics()
		fx.resM.ResetMetrics()
		fr, rr := fx.fab.ReportBatch(boxes), fx.res.ReportBatch(boxes)
		for i := range fr {
			if !slices.Equal(brute.IDs(fr[i]), brute.IDs(rr[i])) {
				t.Fatalf("%s report %d: fabric and resident answers differ", name, i)
			}
		}
		assertSameMetrics(t, name, fx.fabM.Metrics(), fx.resM.Metrics())
		shipped, byRef := copyVolume(fx.fab)
		if rs, rb := copyVolume(fx.res); rs != shipped || rb != byRef {
			t.Fatalf("%s: fabric shipped %d / by ref %d, resident %d / %d", name, shipped, byRef, rs, rb)
		}
		switch name {
		case "cold":
			if cold = shipped; cold == 0 || byRef != 0 {
				t.Fatalf("cold batch shipped %d points, %d by reference; want >0 and 0", shipped, byRef)
			}
		case "warm":
			if shipped != 0 || byRef != cold {
				t.Fatalf("warm batch shipped %d points, %d by reference; want 0 and %d", shipped, byRef, cold)
			}
		case "uncached":
			if shipped != cold || byRef != 0 {
				t.Fatalf("uncached batch shipped %d points, %d by reference; want %d and 0", shipped, byRef, cold)
			}
		}
	}
}

// TestLoweredCapShipsByValue: fabric and resident twins warm their copy
// caches, then get cap −1. The batch that first sees it still serves its
// advertised references; the next ships every copy by value with no cache
// hit. Answers equal brute force and the twins' metrics agree throughout.
func TestLoweredCapShipsByValue(t *testing.T) {
	const n, d, p, m = 400, 2, 4, 96
	fx := newResidentFixture(t, n, d, p, 7)
	bf := brute.New(fx.pts)
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.02, Foci: 2, Theta: 1.5, Seed: 3})
	cold := 0
	for _, phase := range []string{"cold", "warm", "lowered", "after"} {
		if phase == "lowered" {
			fx.fab.SetCopyCacheCap(-1)
			fx.res.SetCopyCacheCap(-1)
		}
		fx.fabM.ResetMetrics()
		fx.resM.ResetMetrics()
		fr, rr := fx.fab.ReportBatch(boxes), fx.res.ReportBatch(boxes)
		for i, b := range boxes {
			want := brute.IDs(bf.Report(b))
			if !slices.Equal(brute.IDs(fr[i]), want) || !slices.Equal(brute.IDs(rr[i]), want) {
				t.Fatalf("%s report %d: answers differ from brute force", phase, i)
			}
		}
		assertSameMetrics(t, phase, fx.fabM.Metrics(), fx.resM.Metrics())
		for _, tree := range []*core.Tree{fx.fab, fx.res} {
			shipped, byRef := copyVolume(tree)
			hits := 0
			for _, st := range tree.LastSearchStats() {
				hits += st.CopyCacheHits
			}
			switch phase {
			case "cold":
				cold = shipped
				if cold == 0 {
					t.Fatal("cold batch shipped no copies; the test needs congestion")
				}
			case "warm", "lowered":
				if shipped != 0 || byRef != cold {
					t.Fatalf("%s batch shipped %d points, %d by reference; want 0 and %d", phase, shipped, byRef, cold)
				}
			case "after":
				if shipped != cold || byRef != 0 || hits != 0 {
					t.Fatalf("batch after cap −1 shipped %d points, %d by reference, %d cache hits; want %d, 0, 0",
						shipped, byRef, hits, cold)
				}
			}
		}
	}
}

// TestResidentAllPointsAndStats: the out-of-run resident accessors fetch
// from worker memory and agree with the fabric twin.
func TestResidentAllPointsAndStats(t *testing.T) {
	fx := newResidentFixture(t, 300, 2, 4, 11)
	fp, err := fx.fab.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := fx.res.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != len(rp) {
		t.Fatalf("AllPoints: fabric %d resident %d", len(fp), len(rp))
	}
	for i := range fp {
		if fp[i].ID != rp[i].ID {
			t.Fatalf("AllPoints order diverges at %d: %d vs %d", i, fp[i].ID, rp[i].ID)
		}
	}
	fn, err := fx.fab.ForestPartNodes()
	if err != nil {
		t.Fatal(err)
	}
	rn, err := fx.res.ForestPartNodes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fn {
		if fn[i] != rn[i] {
			t.Fatalf("ForestPartNodes[%d]: fabric %d resident %d", i, fn[i], rn[i])
		}
	}
}

// TestResidentSingleQueries: the cooperative single-query algorithms work
// against resident parts.
func TestResidentSingleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fx := newResidentFixture(t, 250, 2, 4, 13)
	bf := &brute.Set{Pts: fx.pts}
	for q := 0; q < 15; q++ {
		lo := []geom.Coord{geom.Coord(rng.Intn(250)), geom.Coord(rng.Intn(250))}
		hi := []geom.Coord{lo[0] + geom.Coord(rng.Intn(120)), lo[1] + geom.Coord(rng.Intn(120))}
		b := geom.NewBox(lo, hi)
		if got, want := fx.res.SingleCount(b), int64(bf.Count(b)); got != want {
			t.Fatalf("SingleCount: got %d want %d", got, want)
		}
	}
}

// TestResidentUnnamedPrepareRefused: an inline monoid cannot serve a
// resident tree; the mistake must fail loudly at preparation time.
func TestResidentUnnamedPrepareRefused(t *testing.T) {
	fx := newResidentFixture(t, 100, 2, 2, 17)
	defer func() {
		if recover() == nil {
			t.Fatal("PrepareAssociative on a resident tree must panic")
		}
	}()
	core.PrepareAssociative(fx.res, semigroup.FloatSum(), workload.WeightOf)
}
