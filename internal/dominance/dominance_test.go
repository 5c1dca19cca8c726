package dominance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

func randomPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for j := range x {
			x[j] = geom.Coord(rng.Intn(2*n) + 1)
		}
		pts[i] = geom.Point{ID: int32(i), X: x}
	}
	return pts
}

func mustNew[T any](tb testing.TB, pts []geom.Point, g semigroup.Monoid[T], val func(geom.Point) T) *Tree[T] {
	tb.Helper()
	tr, err := New(pts, g, val)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestNewRejects covers the two inputs New reports as errors: a monoid
// that is not a group, and an empty point set.
func TestNewRejects(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(1)), 5, 2)
	if _, err := New(pts, semigroup.MaxFloat(), func(geom.Point) float64 { return 1 }); err == nil {
		t.Error("New accepted a monoid without an Inverse")
	}
	if _, err := New(nil, semigroup.IntSum(), func(geom.Point) int64 { return 1 }); err == nil {
		t.Error("New accepted an empty point set")
	}
}

func TestDominatedMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		d := 1 + rng.Intn(4)
		pts := randomPoints(rng, n, d)
		val := func(p geom.Point) int64 { return int64(p.ID) + 1 }
		tr := mustNew(t, pts, semigroup.IntSum(), val)
		for q := 0; q < 10; q++ {
			c := make([]geom.Coord, d)
			for j := range c {
				c[j] = geom.Coord(rng.Intn(2*n+2) - 1)
			}
			want := int64(0)
			for _, p := range pts {
				dom := true
				for j := range c {
					if p.X[j] > c[j] {
						dom = false
						break
					}
				}
				if dom {
					want += val(p)
				}
			}
			if tr.dominated(c) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoxInclusionExclusionMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		d := 1 + rng.Intn(3)
		pts := randomPoints(rng, n, d)
		weight := func(p geom.Point) float64 { return float64(p.ID%13) - 6 }
		tr := mustNew(t, pts, semigroup.FloatSum(), weight)
		bf := brute.New(pts)
		for q := 0; q < 10; q++ {
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
			b := geom.Box{Lo: lo, Hi: hi}
			if tr.Box(b) != brute.Aggregate(bf, semigroup.FloatSum(), weight, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCountsViaGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 200, 2)
	tr := mustNew(t, pts, semigroup.IntSum(), func(geom.Point) int64 { return 1 })
	bf := brute.New(pts)
	for q := 0; q < 30; q++ {
		a, b := geom.Coord(rng.Intn(400)), geom.Coord(rng.Intn(400))
		c, d := geom.Coord(rng.Intn(400)), geom.Coord(rng.Intn(400))
		if a > b {
			a, b = b, a
		}
		if c > d {
			c, d = d, c
		}
		box := geom.NewBox([]geom.Coord{a, c}, []geom.Coord{b, d})
		if got, want := tr.Box(box), int64(bf.Count(box)); got != want {
			t.Fatalf("Box = %d, want %d", got, want)
		}
	}
}

func TestEmptyBoxCancels(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(5)), 50, 2)
	tr := mustNew(t, pts, semigroup.IntSum(), func(geom.Point) int64 { return 1 })
	// Inverted box: the 2^d terms must cancel to the identity.
	b := geom.NewBox([]geom.Coord{40, 1}, []geom.Coord{3, 100})
	if got := tr.Box(b); got != 0 {
		t.Errorf("inverted box = %d, want 0", got)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"boxdim": func() {
			tr := mustNew(t, randomPoints(rand.New(rand.NewSource(1)), 5, 2), semigroup.IntSum(), func(geom.Point) int64 { return 1 })
			tr.Box(geom.NewBox([]geom.Coord{1}, []geom.Coord{2}))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
