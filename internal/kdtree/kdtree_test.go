package kdtree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for j := range x {
			x[j] = geom.Coord(rng.Intn(2 * n))
		}
		pts[i] = geom.Point{ID: int32(i), X: x}
	}
	return pts
}

func randomBox(rng *rand.Rand, n, d int) geom.Box {
	lo := make([]geom.Coord, d)
	hi := make([]geom.Coord, d)
	for j := 0; j < d; j++ {
		a := geom.Coord(rng.Intn(2 * n))
		b := geom.Coord(rng.Intn(2 * n))
		if a > b {
			a, b = b, a
		}
		lo[j], hi[j] = a, b
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func TestEquivalenceWithBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		d := 1 + rng.Intn(4)
		pts := randomPoints(rng, n, d)
		tr := Build(pts)
		bf := brute.New(pts)
		for q := 0; q < 10; q++ {
			b := randomBox(rng, n, d)
			if tr.Count(b) != bf.Count(b) {
				return false
			}
			if !reflect.DeepEqual(brute.IDs(tr.Report(b)), brute.IDs(bf.Report(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil)
}

func TestDimMismatchPanics(t *testing.T) {
	tr := Build(randomPoints(rand.New(rand.NewSource(2)), 10, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Count(geom.NewBox([]geom.Coord{0, 0, 0}, []geom.Coord{1, 1, 1}))
}

func TestLinearSpace(t *testing.T) {
	// k-d tree space is Θ(n), independent of d — the trade-off of §1.
	rng := rand.New(rand.NewSource(3))
	n := 1024
	for _, d := range []int{1, 2, 4} {
		tr := Build(randomPoints(rng, n, d))
		if nodes := tr.Nodes(); nodes > 4*n {
			t.Errorf("d=%d: %d nodes for %d points, want O(n)", d, nodes, n)
		}
	}
}

func TestEmptyBoxQuery(t *testing.T) {
	tr := Build(randomPoints(rand.New(rand.NewSource(5)), 40, 2))
	b := geom.NewBox([]geom.Coord{9, 0}, []geom.Coord{2, 50})
	if tr.Count(b) != 0 || tr.Report(b) != nil {
		t.Error("inverted box must match nothing")
	}
}

func TestWholeSubtreePruning(t *testing.T) {
	// A query covering everything must take the root whole, thanks to
	// the contained-subtree shortcut.
	pts := randomPoints(rand.New(rand.NewSource(7)), 500, 2)
	tr := Build(pts)
	all := geom.NewBox([]geom.Coord{-1, -1}, []geom.Coord{1 << 20, 1 << 20})
	whole, single := 0, 0
	tr.Visit(all, func(*node) { whole++ }, func(geom.Point) { single++ })
	if whole != 1 || single != 0 {
		t.Errorf("full query took %d subtrees and %d single points, want the root alone", whole, single)
	}
	if tr.Count(all) != 500 {
		t.Error("full query must count everything")
	}
}
