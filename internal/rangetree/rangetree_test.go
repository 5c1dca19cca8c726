package rangetree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

// randomPoints builds n random d-dimensional points; when normalize is set
// the coordinates are the paper's distinct ranks, otherwise raw duplicates
// survive (exercising tie handling).
func randomPoints(rng *rand.Rand, n, d int, normalize bool) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for j := range x {
			x[j] = geom.Coord(rng.Intn(3 * n))
		}
		pts[i] = geom.Point{ID: int32(i), X: x}
	}
	if normalize {
		geom.RankNormalize(pts)
	}
	return pts
}

func randomBox(rng *rand.Rand, n, d int) geom.Box {
	lo := make([]geom.Coord, d)
	hi := make([]geom.Coord, d)
	for j := 0; j < d; j++ {
		a := geom.Coord(rng.Intn(3*n) - n/2)
		b := geom.Coord(rng.Intn(3*n) - n/2)
		if a > b {
			a, b = b, a
		}
		lo[j], hi[j] = a, b
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func TestSinglePoint(t *testing.T) {
	pts := []geom.Point{{ID: 0, X: []geom.Coord{5, 7}}}
	tr := Build(pts)
	if tr.Count(geom.NewBox([]geom.Coord{5, 7}, []geom.Coord{5, 7})) != 1 {
		t.Error("point query should hit")
	}
	if tr.Count(geom.NewBox([]geom.Coord{6, 7}, []geom.Coord{9, 9})) != 0 {
		t.Error("miss query should be empty")
	}
}

func TestEmptyBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty build")
		}
	}()
	Build(nil)
}

func TestDimMismatchPanics(t *testing.T) {
	tr := Build(randomPoints(rand.New(rand.NewSource(1)), 8, 2, true))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on query dim mismatch")
		}
	}()
	tr.Count(geom.NewBox([]geom.Coord{0}, []geom.Coord{5}))
}

func TestKnown2D(t *testing.T) {
	// A 4x4 grid diagonal.
	pts := geom.RankPoints([][]geom.Coord{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	tr := Build(pts)
	if got := tr.Count(geom.NewBox([]geom.Coord{2, 1}, []geom.Coord{4, 3})); got != 2 {
		t.Errorf("Count = %d, want 2 (points (2,2),(3,3))", got)
	}
	got := brute.IDs(tr.Report(geom.NewBox([]geom.Coord{1, 1}, []geom.Coord{4, 4})))
	if !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Errorf("full-range report = %v", got)
	}
}

// TestEquivalenceWithBrute is the main correctness property: Count and
// Report agree with the linear scan over random workloads, with and
// without rank normalization, for d = 1..4.
func TestEquivalenceWithBrute(t *testing.T) {
	for _, normalize := range []bool{true, false} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(120)
			d := 1 + rng.Intn(4)
			pts := randomPoints(rng, n, d, normalize)
			tr := Build(pts)
			bf := brute.New(pts)
			for q := 0; q < 12; q++ {
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
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("normalize=%v: %v", normalize, err)
		}
	}
}

// TestSelectionsDisjointExact: the selected last-dimension trees plus the
// single points partition the result set (each point reported exactly
// once) — the invariant Algorithms Search/Report rely on.
func TestSelectionsDisjointExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(100)
		d := 1 + rng.Intn(3)
		pts := randomPoints(rng, n, d, true)
		tr := Build(pts)
		bf := brute.New(pts)
		b := randomBox(rng, n, d)
		sels, singles := tr.Selections(b)
		seen := map[int32]int{}
		for _, sl := range sels {
			for _, p := range sl.Points() {
				seen[p.ID]++
			}
			if sl.Count() != len(sl.Points()) {
				t.Fatal("selection count disagrees with points")
			}
		}
		for _, p := range singles {
			seen[p.ID]++
		}
		want := bf.Report(b)
		if len(seen) != len(want) {
			t.Fatalf("selection cover has %d ids, want %d", len(seen), len(want))
		}
		for _, p := range want {
			if seen[p.ID] != 1 {
				t.Fatalf("point %d covered %d times", p.ID, seen[p.ID])
			}
		}
	}
}

// TestSelectionCountLogBound: a query selects O(log^d n) nodes (§4: "at
// most O(log n) nodes per dimension, O(log^d n) selected").
func TestSelectionCountLogBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, d := 1024, 2
	pts := randomPoints(rng, n, d, true)
	tr := Build(pts)
	logn := 10 // log2 1024
	for trial := 0; trial < 40; trial++ {
		b := randomBox(rng, n, d)
		sels, singles := tr.Selections(b)
		bound := 4 * logn * logn // generous constant on O(log^2 n)
		if len(sels)+len(singles) > bound {
			t.Fatalf("%d selections for one query, bound %d", len(sels)+len(singles), bound)
		}
	}
}

func TestBuildFromForestElementShape(t *testing.T) {
	// A forest element discriminates only trailing dimensions; leading
	// dimensions are unconstrained (guaranteed by the hat).
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 40, 3, true)
	el := BuildFrom(pts, 1) // dims 1..2 only
	bf := brute.New(pts)
	for trial := 0; trial < 30; trial++ {
		b := randomBox(rng, 40, 3)
		// Open the first dimension fully so brute agrees with what the
		// element can see.
		b.Lo[0], b.Hi[0] = -1<<30, 1<<30
		if got, want := el.Count(b), bf.Count(b); got != want {
			t.Fatalf("element count = %d, want %d", got, want)
		}
	}
}

func TestBuildFromBadStart(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(1)), 4, 2, true)
	for _, start := range []int{-1, 2, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildFrom(start=%d) should panic", start)
				}
			}()
			BuildFrom(pts, start)
		}()
	}
}

func TestNodesSpaceGrowth(t *testing.T) {
	// s = Θ(n log^(d-1) n): the 2-d tree must be ≥ log-factor larger than
	// the 1-d tree and the 3-d tree larger still.
	rng := rand.New(rand.NewSource(5))
	n := 256
	sizes := make([]int, 4)
	for d := 1; d <= 3; d++ {
		pts := randomPoints(rng, n, d, true)
		sizes[d] = Build(pts).Nodes()
	}
	if !(sizes[1] < sizes[2] && sizes[2] < sizes[3]) {
		t.Errorf("sizes not growing with d: %v", sizes[1:])
	}
	if sizes[2] < sizes[1]*3 { // log2 256 = 8, expect much more than 3x
		t.Errorf("2-d tree only %dx the 1-d tree", sizes[2]/sizes[1])
	}
}

func TestEmptyBoxQueries(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(9)), 30, 2, true)
	tr := Build(pts)
	b := geom.NewBox([]geom.Coord{10, 5}, []geom.Coord{3, 20}) // inverted dim 0
	if tr.Count(b) != 0 || len(tr.Report(b)) != 0 {
		t.Error("inverted box must select nothing")
	}
}

func TestAggCountMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(rng, 90, 3, true)
	tr := Build(pts)
	counter := NewAgg(tr, semigroup.IntSum(), func(geom.Point) int64 { return 1 })
	for trial := 0; trial < 40; trial++ {
		b := randomBox(rng, 90, 3)
		if got, want := counter.Query(b), int64(tr.Count(b)); got != want {
			t.Fatalf("agg count = %d, want %d", got, want)
		}
	}
}

func TestAggModesAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(rng, 70, 2, true)
	tr := Build(pts)
	bf := brute.New(pts)
	weight := func(p geom.Point) float64 { return float64(p.ID%7) - 3 }
	sum := NewAgg(tr, semigroup.FloatSum(), weight)
	mx := NewAgg(tr, semigroup.MaxFloat(), weight)
	for trial := 0; trial < 50; trial++ {
		b := randomBox(rng, 70, 2)
		if got, want := sum.Query(b), brute.Aggregate(bf, semigroup.FloatSum(), weight, b); got != want {
			t.Fatalf("sum = %v, want %v", got, want)
		}
		if got, want := mx.Query(b), brute.Aggregate(bf, semigroup.MaxFloat(), weight, b); got != want {
			t.Fatalf("max = %v, want %v", got, want)
		}
	}
}

func TestAggValueMatchesSelectionFold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 64, 2, true)
	tr := Build(pts)
	m := semigroup.IntSum()
	val := func(p geom.Point) int64 { return int64(p.ID) }
	agg := NewAgg(tr, m, val)
	b := randomBox(rng, 64, 2)
	sels, _ := tr.Selections(b)
	for _, sl := range sels {
		want := m.Identity
		for _, p := range sl.Points() {
			want = m.Combine(want, val(p))
		}
		if got := agg.Value(sl); got != want {
			t.Fatalf("Value(%v) = %d, want %d", sl, got, want)
		}
	}
}
