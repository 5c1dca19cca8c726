package layered

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// noInverse is m without its inverse: the same algebra on the segment-tree
// layout every monoid that is not a group gets.
func noInverse[T any](m semigroup.Monoid[T]) semigroup.Monoid[T] {
	m.Inverse = nil
	return m
}

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
		prefix := NewAgg(lt, semigroup.IntSum(), weight)
		seg := NewAgg(lt, noInverse(semigroup.IntSum()), weight)
		maxInt := semigroup.Monoid[int64]{Identity: math.MinInt64, Combine: func(a, b int64) int64 { return max(a, b) }}
		mx := NewAgg(lt, maxInt, weight)
		bf := brute.New(pts)
		for q := 0; q < 10; q++ {
			b := randomBox(rng, n, d)
			want := brute.Aggregate(bf, semigroup.IntSum(), weight, b)
			if got := prefix.Query(b); got != want {
				t.Logf("seed %d n=%d d=%d: prefix-table sum %d want %d", seed, n, d, got, want)
				return false
			}
			if got := seg.Query(b); got != want {
				t.Logf("seed %d n=%d d=%d: segment-tree sum %d want %d", seed, n, d, got, want)
				return false
			}
			if got, want := mx.Query(b), brute.Aggregate(bf, maxInt, weight, b); got != want {
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
		el := BuildFrom(geom.BlockOf(pts, tc.d), tc.startDim)
		weight := func(p geom.Point) int64 { return int64(p.ID) + 1 }
		prefix, seg := NewAgg(el, semigroup.IntSum(), weight), NewAgg(el, noInverse(semigroup.IntSum()), weight)
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
			if got := prefix.Query(b); got != want {
				t.Fatalf("n=%d d=%d start=%d: prefix-table agg %d want %d", tc.n, tc.d, tc.startDim, got, want)
			}
			if got := seg.Query(b); got != want {
				t.Fatalf("n=%d d=%d start=%d: segment-tree agg %d want %d", tc.n, tc.d, tc.startDim, got, want)
			}
		}
	}
}

// TestAggLayoutsAgree requires the prefix-table and segment-tree layouts
// of one int64 sum to give identical answers at every startDim, including
// one-dimensional trees, at sizes around the bucket and the power-of-two
// padding.
func TestAggLayoutsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	weight := func(p geom.Point) int64 { return int64(p.ID%5) - 2 }
	for _, n := range []int{1, 7, bucket, bucket + 1, 64, 200, 257} {
		for d := 1; d <= 4; d++ {
			pts := randomPoints(rng, n, d, n%2 == 0)
			for startDim := 0; startDim < d; startDim++ {
				el := BuildFrom(geom.BlockOf(pts, d), startDim)
				prefix, seg := NewAgg(el, semigroup.IntSum(), weight), NewAgg(el, noInverse(semigroup.IntSum()), weight)
				for q := 0; q < 20; q++ {
					b := randomBox(rng, n, d)
					if got, want := prefix.Query(b), seg.Query(b); got != want {
						t.Fatalf("n=%d d=%d start=%d box %v: prefix table %d, segment tree %d", n, d, startDim, b, got, want)
					}
				}
			}
		}
	}
}

// TestGroupRunEnds folds every run [pLo, pHi) of every node on every
// sampled level of every cascade of d = 2 and d = 3 trees of 1 to 70
// points, so levels whose length is no multiple of prefixStride and nodes
// shorter than it occur, through a group's sampled prefix table, and
// requires each to equal the direct sum of the run's values exactly. The
// values are distinct random integers, so a run end off by one entry, or
// a sample read from the wrong node, changes the sum.
func TestGroupRunEnds(t *testing.T) {
	if bucket%prefixStride != 0 {
		t.Fatalf("prefixStride %d does not divide bucket %d", prefixStride, bucket)
	}
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 70; n++ {
		w := make([]int64, n)
		for i := range w {
			w[i] = rng.Int63n(1 << 40)
		}
		weight := func(p geom.Point) int64 { return w[p.ID] }
		for _, d := range []int{2, 3} {
			lt := Build(randomPoints(rng, n, d, n%2 == 0))
			agg := NewAgg(lt, semigroup.IntSum(), weight)
			var cascades []*cascade
			var collect func(*Tree)
			collect = func(t *Tree) {
				if t.two != nil {
					cascades = append(cascades, t.two)
				}
				t.eachDesc(collect)
			}
			collect(lt)
			runs := 0
			for _, c := range cascades {
				for k := 0; k <= c.depth; k++ {
					if !c.sampled(k) {
						continue
					}
					for lo := 0; lo < c.shape.M; lo += c.shape.Cap >> k {
						hi, _ := c.span(k, lo)
						run := c.level(k)[lo:hi]
						for pLo := range run {
							var want int64
							for pHi := pLo + 1; pHi <= len(run); pHi++ {
								want += w[c.blk.IDs[run[pHi-1]]]
								if got := agg.whole(c, agg.tabs[c.ord], k, lo, len(run), pLo, pHi, 0); got != want {
									t.Fatalf("n=%d d=%d cascade %d level %d node %d run [%d, %d): %d, want %d",
										n, d, c.ord, k, lo, pLo, pHi, got, want)
								}
								runs++
							}
						}
					}
				}
			}
			if runs == 0 && d == 2 { // a d = 3 tree of a bucket or less has no cascade
				t.Fatalf("n=%d d=%d: no run folded", n, d)
			}
		}
	}
}

// TestUnsampledLevelContainment meets every cascade node contained: at
// d = 2 (the top cascade) and d = 3 (the cascades of the root and its two
// children), over 2 000 points whose coordinates repeat heavily (four to
// a value in the cascades' x, ≈ 67 in the others), each node's x-span is
// queried under several y cuts, so the descent serves nodes at the levels
// that store no index array through their children. Count, the reported
// IDs, a float sum (prefix tables) and a float max (segment trees) must
// equal brute force, and every unsampled level must hold nodes whose span
// no neighbour's point shares, which such a box contains alone.
func TestUnsampledLevelContainment(t *testing.T) {
	const n = 2000
	weight := func(p geom.Point) float64 { return float64(p.ID%13) + 0.5 } // sums exactly
	all := geom.Interval{Lo: math.MinInt32, Hi: math.MaxInt32}
	cuts := []geom.Interval{all, {Lo: 0, Hi: 14}, {Lo: 10, Hi: 10}, {Lo: 7, Hi: 25}}
	rng := rand.New(rand.NewSource(47))
	for _, d := range []int{2, 3} {
		pts := make([]geom.Point, n)
		for i := range pts {
			x := make([]geom.Coord, d)
			for k := range x {
				x[k] = geom.Coord(rng.Intn(30))
			}
			// The cascades' x: four points a value, so the top cascade's
			// node boundaries (multiples of the bucket) split no value.
			x[d-2] = geom.Coord(i / 4)
			pts[i] = geom.Point{ID: int32(i), X: x}
		}
		lt := Build(pts)
		sum, mx := NewAgg(lt, semigroup.FloatSum(), weight), NewAgg(lt, semigroup.MaxFloat(), weight)
		bf := brute.New(pts)
		upper := []geom.Interval{all} // d = 2: no upper dimension
		cascades := []*cascade{lt.two}
		if d == 3 {
			upper, cascades = nil, nil
			for _, v := range []int{lt.shape.Root(), segtree.Left(lt.shape.Root()), segtree.Right(lt.shape.Root())} {
				lo, hi := lt.shape.PosRange(v)
				upper = append(upper, geom.Interval{Lo: lt.keys[lo], Hi: lt.keys[min(hi, lt.shape.M)-1]})
				cascades = append(cascades, lt.desc[v].two)
			}
		}
		isolated := map[int]int{} // by unsampled level: nodes whose x-span is theirs alone
		for ci, c := range cascades {
			if c.depth < 5 {
				t.Fatalf("d=%d cascade %d: depth %d, want ≥ 5", d, ci, c.depth)
			}
			for k := 0; k <= c.depth; k++ {
				for lo := 0; lo < c.shape.M; lo += c.shape.Cap >> k {
					hi, span := c.span(k, lo)
					if !c.sampled(k) {
						alone := (lo == 0 || c.xkeys[lo-1] < span.Lo) && (hi == c.shape.M || c.xkeys[hi] > span.Hi)
						isolated[k] += btoi(alone)
					}
					for _, cut := range cuts {
						b := geom.Box{Lo: make([]geom.Coord, d), Hi: make([]geom.Coord, d)}
						b.Lo[0], b.Hi[0] = upper[ci].Lo, upper[ci].Hi
						b.Lo[d-2], b.Hi[d-2] = span.Lo, span.Hi
						b.Lo[d-1], b.Hi[d-1] = cut.Lo, cut.Hi
						want := bf.Report(b)
						if got := lt.Count(b); got != len(want) {
							t.Fatalf("d=%d cascade %d node (%d, %d) box %v: count %d, want %d", d, ci, k, lo, b, got, len(want))
						}
						if got := brute.IDs(lt.Report(b)); !slices.Equal(got, brute.IDs(want)) {
							t.Fatalf("d=%d cascade %d node (%d, %d) box %v: report of %d IDs differs from brute force's %d", d, ci, k, lo, b, len(got), len(want))
						}
						if got, want := sum.Query(b), brute.Aggregate(bf, semigroup.FloatSum(), weight, b); got != want {
							t.Fatalf("d=%d cascade %d node (%d, %d) box %v: sum %v, want %v", d, ci, k, lo, b, got, want)
						}
						if got, want := mx.Query(b), brute.Aggregate(bf, semigroup.MaxFloat(), weight, b); got != want {
							t.Fatalf("d=%d cascade %d node (%d, %d) box %v: max %v, want %v", d, ci, k, lo, b, got, want)
						}
					}
				}
			}
		}
		for k, nodes := range isolated {
			if nodes == 0 {
				t.Errorf("d=%d: no node of unsampled level %d is contained alone", d, k)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAggFloatSumErrorBound holds a float64 group's prefix differences to
// the bound Agg's doc comment states, (2g + k)·ε·Σ|f|, against the exact
// sum: workload.WeightOf is a whole number of tenths, so brute force sums
// the selected tenths as integers and rounds once.
func TestAggFloatSumErrorBound(t *testing.T) {
	const n, d = 16384, 3
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 3})
	boxes := workload.Boxes(workload.QuerySpec{M: 200, Dims: d, N: n, Selectivity: 0.01, Seed: 3})
	lt := Build(pts)
	agg := NewAgg(lt, semigroup.FloatSum(), workload.WeightOf)
	bf := brute.New(pts)
	var sumAbs float64
	for _, p := range pts {
		sumAbs += math.Abs(workload.WeightOf(p))
	}
	eps := math.Ldexp(1, -53)
	worst := 0.0
	for i, b := range boxes {
		if i%2 == 1 { // open all but the last dimension: whole root runs, the longest prefixes
			b = b.Clone()
			for k := 0; k < d-1; k++ {
				b.Lo[k], b.Hi[k] = math.MinInt32, math.MaxInt32
			}
		}
		var tenths int64
		for _, p := range bf.Report(b) {
			tenths += int64(math.Round(workload.WeightOf(p) * 10))
		}
		exact := float64(tenths) / 10
		var terms termCounter
		lt.Visit(b, &terms)
		err := math.Abs(agg.Query(b) - exact)
		if bound := float64(2*n+terms.k)*eps*sumAbs + eps*math.Abs(exact); err > bound {
			t.Fatalf("box %v: error %g exceeds (2g + k)·ε·Σ|f| = %g (k = %d)", b, err, bound, terms.k)
		}
		worst = max(worst, err/(eps*sumAbs))
	}
	t.Logf("worst error %.1f·ε·Σ|f| (bound ≥ %d)", worst, 2*n)
}

// termCounter counts the runs and single values a query combines.
type termCounter struct{ k int }

func (c *termCounter) VisitRun(*geom.Block, int, int)    { c.k++ }
func (c *termCounter) VisitIndexed(*geom.Block, []int32) { c.k++ }
func (c *termCounter) VisitRow(*geom.Block, int32)       { c.k++ }

// visitCollector exercises the zero-alloc Visitor API.
type visitCollector struct {
	count int
	ids   []int32
}

func (c *visitCollector) VisitRun(b *geom.Block, lo, hi int) {
	c.count += hi - lo
	c.ids = append(c.ids, b.IDs[lo:hi]...)
}
func (c *visitCollector) VisitIndexed(b *geom.Block, idx []int32) {
	c.count += len(idx)
	for _, i := range idx {
		c.ids = append(c.ids, b.Point(int(i)).ID)
	}
}
func (c *visitCollector) VisitRow(b *geom.Block, i int32) {
	c.count++
	c.ids = append(c.ids, b.IDs[i])
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

// TestVisitAllocationFree asserts the property the serving hooks rely on:
// a descent with a reused visitor, and a prepared Agg's query, perform
// zero heap allocations.
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
	// A prepared annotation answers without allocating on either layout.
	for _, m := range []semigroup.Monoid[float64]{semigroup.FloatSum(), semigroup.MaxFloat()} {
		agg := NewAgg(lt, m, workload.WeightOf)
		if avg := testing.AllocsPerRun(200, func() { agg.Query(boxes[i%len(boxes)]); i++ }); avg != 0 {
			t.Errorf("Agg.Query allocates %.1f objects per query, want 0", avg)
		}
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
		BuildFrom(geom.BlockOf(pts, tc.d), tc.startDim)
		if got := buildSorts.Load() - before; got != tc.want {
			t.Errorf("BuildFrom(n=%d d=%d start=%d) ran %d sorts, want %d",
				tc.n, tc.d, tc.startDim, got, tc.want)
		}
	}
}
