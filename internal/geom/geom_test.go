package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxContains(t *testing.T) {
	b := NewBox([]Coord{1, 2}, []Coord{4, 6})
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, []Coord{1, 2}}, true},
		{Point{1, []Coord{4, 6}}, true},
		{Point{2, []Coord{2, 4}}, true},
		{Point{3, []Coord{0, 4}}, false},
		{Point{4, []Coord{5, 4}}, false},
		{Point{5, []Coord{2, 1}}, false},
		{Point{6, []Coord{2, 7}}, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoxEmpty(t *testing.T) {
	if NewBox([]Coord{1}, []Coord{0}).Empty() != true {
		t.Error("inverted box should be empty")
	}
	if NewBox([]Coord{1}, []Coord{1}).Empty() {
		t.Error("degenerate box should not be empty")
	}
}

func TestBoxDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewBox([]Coord{1, 2}, []Coord{3, 4}).Contains(Point{0, []Coord{1}})
}

func TestContainsFrom(t *testing.T) {
	b := NewBox([]Coord{1, 2, 3}, []Coord{4, 5, 6})
	p := Point{0, []Coord{99, 3, 4}} // violates dim 0 only
	if b.Contains(p) {
		t.Error("Contains should fail on dim 0")
	}
	if !b.ContainsFrom(p, 1) {
		t.Error("ContainsFrom(1) should ignore dim 0")
	}
	if !b.ContainsFrom(p, 3) {
		t.Error("ContainsFrom(d) is vacuously true")
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{2, 5}
	if !a.Contains(2) || !a.Contains(5) || a.Contains(6) || a.Contains(1) {
		t.Error("Contains wrong on closed endpoints")
	}
	if !a.ContainsInterval(Interval{3, 4}) || a.ContainsInterval(Interval{1, 4}) {
		t.Error("ContainsInterval wrong")
	}
	if !a.Overlaps(Interval{5, 9}) || a.Overlaps(Interval{6, 9}) {
		t.Error("Overlaps wrong at boundary")
	}
	if !(Interval{3, 2}).Empty() {
		t.Error("inverted interval should be empty")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Point{7, []Coord{1, 2}}
	q := p.Clone()
	q.X[0] = 99
	if p.X[0] != 1 {
		t.Error("Clone should not share coordinate storage")
	}
	b := NewBox([]Coord{1}, []Coord{2})
	c := b.Clone()
	c.Lo[0] = 50
	if b.Lo[0] != 1 {
		t.Error("Box Clone should not share storage")
	}
}

func TestNormalizeFloat64Ranks(t *testing.T) {
	raw := [][]float64{{3.5, 1.0}, {1.5, 1.0}, {2.5, 9.0}, {1.5, -4.0}}
	pts, _ := NormalizeFloat64(raw)
	// Dimension 0 sorted: 1.5(id1), 1.5(id3)... ties broken by id: id1 then id3.
	wantX0 := map[int32]Coord{0: 4, 1: 1, 2: 3, 3: 2}
	for _, p := range pts {
		if p.X[0] != wantX0[p.ID] {
			t.Errorf("point %d dim0 rank = %d, want %d", p.ID, p.X[0], wantX0[p.ID])
		}
	}
	// Ranks must be a permutation of 1..n in every dimension.
	for j := 0; j < 2; j++ {
		seen := map[Coord]bool{}
		for _, p := range pts {
			if p.X[j] < 1 || p.X[j] > 4 || seen[p.X[j]] {
				t.Fatalf("dim %d ranks not a permutation: %v", j, pts)
			}
			seen[p.X[j]] = true
		}
	}
}

func TestNormalizerBoxEquivalence(t *testing.T) {
	// A raw box and its rank image must select exactly the same points.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n, d := 40, 3
		raw := make([][]float64, n)
		for i := range raw {
			raw[i] = make([]float64, d)
			for j := range raw[i] {
				raw[i][j] = float64(rng.Intn(12)) // many duplicate values on purpose
			}
		}
		pts, nm := NormalizeFloat64(raw)
		lo, hi := make([]float64, d), make([]float64, d)
		for j := 0; j < d; j++ {
			a, b := float64(rng.Intn(14)-1), float64(rng.Intn(14)-1)
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		rb := nm.Box(lo, hi)
		for i, p := range pts {
			inRaw := true
			for j := 0; j < d; j++ {
				if raw[i][j] < lo[j] || raw[i][j] > hi[j] {
					inRaw = false
				}
			}
			if got := rb.Contains(p); got != inRaw {
				t.Fatalf("trial %d point %d: rank box membership %v, raw box %v", trial, i, got, inRaw)
			}
		}
	}
}

func TestNormalizerRawRoundTrip(t *testing.T) {
	raw := [][]float64{{10}, {20}, {30}}
	pts, nm := NormalizeFloat64(raw)
	// The box of each raw value holds exactly that value's rank point.
	for i := range pts {
		b := nm.Box(raw[i], raw[i])
		for k, q := range pts {
			if b.Contains(q) != (k == i) {
				t.Errorf("box of raw %v: contains the rank point of raw %v = %v", raw[i], raw[k], b.Contains(q))
			}
		}
	}
	if nm.N() != 3 || nm.Dims() != 1 {
		t.Errorf("N/Dims = %d/%d", nm.N(), nm.Dims())
	}
}

func TestRankNormalizeProperty(t *testing.T) {
	// RankNormalize preserves per-dimension order (ties by ID) and
	// produces permutations of 1..n.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		d := 1 + rng.Intn(4)
		pts := make([]Point, n)
		orig := make([][]Coord, n)
		for i := range pts {
			x := make([]Coord, d)
			for j := range x {
				x[j] = Coord(rng.Intn(10))
			}
			orig[i] = append([]Coord(nil), x...)
			pts[i] = Point{ID: int32(i), X: x}
		}
		RankNormalize(pts)
		for j := 0; j < d; j++ {
			seen := make([]bool, n+1)
			for _, p := range pts {
				if p.X[j] < 1 || p.X[j] > Coord(n) || seen[p.X[j]] {
					return false
				}
				seen[p.X[j]] = true
			}
			// Order preservation: rank order must refine value order.
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if orig[a][j] < orig[b][j] && pts[a].X[j] > pts[b].X[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeEmpty(t *testing.T) {
	pts, nm := NormalizeFloat64(nil)
	if len(pts) != 0 || nm.N() != 0 {
		t.Error("empty input should produce empty output")
	}
}

func TestRankPoints(t *testing.T) {
	rows := [][]Coord{{5, 6}, {7, 8}}
	pts := RankPoints(rows)
	if len(pts) != 2 || pts[1].ID != 1 || pts[1].X[1] != 8 {
		t.Fatalf("RankPoints wrong: %v", pts)
	}
	rows[0][0] = 99
	if pts[0].X[0] != 5 {
		t.Error("RankPoints must copy coordinates")
	}
}
