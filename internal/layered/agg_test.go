package layered

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

func TestAggMatchesBrute(t *testing.T) {
	weight := func(p geom.Point) int64 { return int64(p.ID%7) + 1 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		if rng.Intn(3) == 0 {
			n = 1 + rng.Intn(bucket) // the whole tree is one scanned bucket
		}
		d := 1 + rng.Intn(4)
		pts := randomPoints(rng, n, d, seed%2 == 0)
		lt := Build(pts)
		agg := NewAgg(lt, semigroup.IntSum(), weight)
		mx := NewAgg(lt, semigroup.MaxInt(), weight)
		bf := brute.New(pts)
		for q := 0; q < 10; q++ {
			b := randomBox(rng, n, d)
			if got, want := agg.Query(b), brute.Aggregate(bf, semigroup.IntSum(), weight, b); got != want {
				t.Logf("seed %d n=%d d=%d: sum %d want %d", seed, n, d, got, want)
				return false
			}
			if got, want := mx.Query(b), brute.Aggregate(bf, semigroup.MaxInt(), weight, b); got != want {
				t.Logf("seed %d n=%d d=%d: max %d want %d", seed, n, d, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAggStartDimParity(t *testing.T) {
	// Forest-element shape: an element tree discriminating dims j..d-1
	// only, at sizes on both sides of the bucket.
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ n, d, startDim int }{
		{80, 3, 1}, {80, 4, 1}, {80, 4, 2}, {200, 4, 0}, {80, 4, 3},
		{5, 3, 1}, {bucket, 4, 1}, {bucket + 1, 4, 1}, {3, 4, 0},
	} {
		pts := randomPoints(rng, tc.n, tc.d, true)
		el := BuildFrom(pts, tc.startDim)
		agg := NewAgg(el, semigroup.IntSum(), func(p geom.Point) int64 { return int64(p.ID) + 1 })
		bf := brute.New(pts)
		for trial := 0; trial < 25; trial++ {
			b := randomBox(rng, tc.n, tc.d)
			for k := 0; k < tc.startDim; k++ {
				b.Lo[k], b.Hi[k] = -1<<30, 1<<30
			}
			var want int64
			for _, p := range bf.Report(b) {
				want += int64(p.ID) + 1
			}
			if got := agg.Query(b); got != want {
				t.Fatalf("n=%d d=%d start=%d: element agg %d want %d", tc.n, tc.d, tc.startDim, got, want)
			}
		}
	}
}

// visitCollector exercises the zero-alloc Visitor API.
type visitCollector struct {
	count int
	ids   []int32
}

func (c *visitCollector) VisitRange(pts []geom.Point) {
	c.count += len(pts)
	for _, p := range pts {
		c.ids = append(c.ids, p.ID)
	}
}
func (c *visitCollector) VisitIndexed(base []geom.Point, idx []int32) {
	c.count += len(idx)
	for _, i := range idx {
		c.ids = append(c.ids, base[i].ID)
	}
}
func (c *visitCollector) VisitPoint(p geom.Point) {
	c.count++
	c.ids = append(c.ids, p.ID)
}

func TestVisitMatchesCountAndReport(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n, d := 1+rng.Intn(140), 1+rng.Intn(4)
		pts := randomPoints(rng, n, d, true)
		lt := Build(pts)
		for q := 0; q < 6; q++ {
			b := randomBox(rng, n, d)
			var c visitCollector
			lt.Visit(b, &c)
			if c.count != lt.Count(b) {
				t.Fatalf("visit count %d, Count %d", c.count, lt.Count(b))
			}
			got := append([]int32(nil), c.ids...)
			slices.Sort(got)
			want := brute.IDs(lt.Report(b))
			if !slices.Equal(got, want) {
				t.Fatalf("visit ids %v, report %v", got, want)
			}
		}
	}
}

// TestVisitAllocationFree asserts the tentpole property the serving hooks
// rely on: a descent with a reused visitor performs zero heap allocations.
func TestVisitAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randomPoints(rng, 4096, 3, true)
	lt := Build(pts)
	boxes := make([]geom.Box, 16)
	for i := range boxes {
		boxes[i] = randomBox(rng, 4096, 3)
	}
	var c visitCollector
	c.ids = make([]int32, 0, 1<<16)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		c.ids = c.ids[:0]
		lt.Visit(boxes[i%len(boxes)], &c)
		i++
	})
	if avg != 0 {
		t.Errorf("Visit allocates %.1f objects per query, want 0", avg)
	}
}

// TestBuildSortsOncePerDimension asserts the construction bound: sorting
// happens once per needed dimension at the top level, and never again for
// descendant point sets (they are split stably from the presorted orders).
func TestBuildSortsOncePerDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		n, d, startDim int
		want           int64
	}{
		{500, 1, 0, 1}, // single dimension: one sort
		{500, 2, 0, 1}, // pure cascade: x order only, y comes from merging
		{500, 3, 0, 2},
		{500, 4, 0, 3},
		{500, 4, 1, 2}, // element shape: dims 1..3
		{500, 3, 2, 1}, // trailing single dimension
	} {
		pts := randomPoints(rng, tc.n, tc.d, true)
		before := buildSorts.Load()
		BuildFrom(pts, tc.startDim)
		if got := buildSorts.Load() - before; got != tc.want {
			t.Errorf("BuildFrom(n=%d d=%d start=%d) ran %d sorts, want %d",
				tc.n, tc.d, tc.startDim, got, tc.want)
		}
	}
}
