package layered

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/rangetree"
	"repro/internal/segtree"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

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

func TestEquivalenceWithBrute(t *testing.T) {
	for _, normalize := range []bool{true, false} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(130)
			d := 1 + rng.Intn(4)
			pts := randomPoints(rng, n, d, normalize)
			lt := Build(pts)
			bf := brute.New(pts)
			for q := 0; q < 12; q++ {
				b := randomBox(rng, n, d)
				if lt.Count(b) != bf.Count(b) {
					t.Logf("seed %d n=%d d=%d: count %d want %d", seed, n, d, lt.Count(b), bf.Count(b))
					return false
				}
				if !reflect.DeepEqual(brute.IDs(lt.Report(b)), brute.IDs(bf.Report(b))) {
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

func TestMatchesRangeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n, d := 1+rng.Intn(120), 1+rng.Intn(3)
		pts := randomPoints(rng, n, d, true)
		lt := Build(pts)
		rt := rangetree.Build(pts)
		for q := 0; q < 8; q++ {
			b := randomBox(rng, n, d)
			if lt.Count(b) != rt.Count(b) {
				t.Fatalf("layered %d vs rangetree %d", lt.Count(b), rt.Count(b))
			}
		}
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
	lt := Build(randomPoints(rand.New(rand.NewSource(1)), 10, 2, true))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lt.Count(geom.NewBox([]geom.Coord{1}, []geom.Coord{2}))
}

func TestBuildFromTrailingDims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 60, 3, true)
	el := BuildFrom(geom.BlockOf(pts, 3), 1)
	bf := brute.New(pts)
	for trial := 0; trial < 20; trial++ {
		b := randomBox(rng, 60, 3)
		b.Lo[0], b.Hi[0] = -1<<30, 1<<30
		if el.Count(b) != bf.Count(b) {
			t.Fatalf("element count %d want %d", el.Count(b), bf.Count(b))
		}
	}
}

// TestBuildFromKeepsBlock: BuildFrom keeps the caller's block as the
// tree's own and never writes it (an in-process phase-B copy is built
// over its owner's block), except that a one-dimensional tree over an
// unsorted block keeps a sorted copy; queries hand out views into it.
func TestBuildFromKeepsBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range []struct {
		d, start int
		sorted   bool // sort the input by the final coordinate first
	}{{3, 0, false}, {3, 1, false}, {2, 0, false}, {2, 1, false}, {2, 1, true}, {1, 0, true}} {
		pts := randomPoints(rng, 300, c.d, true)
		if c.sorted {
			slices.SortFunc(pts, func(a, b geom.Point) int { return geom.CmpInDim(a, b, c.d-1) })
		}
		blk := geom.BlockOf(pts, c.d)
		ids, coords := slices.Clone(blk.IDs), slices.Clone(blk.Coords)
		lt := BuildFrom(blk, c.start)
		NewAgg(lt, semigroup.IntSum(), func(p geom.Point) int64 { return int64(p.X[0]) })
		for q := 0; q < 10; q++ {
			lt.Report(randomBox(rng, 300, c.d))
		}
		if !slices.Equal(blk.IDs, ids) || !slices.Equal(blk.Coords, coords) {
			t.Fatalf("d=%d start=%d: building and querying wrote the caller's block", c.d, c.start)
		}
		shared := &lt.Points().IDs[0] == &blk.IDs[0] && &lt.Points().Coords[0] == &blk.Coords[0]
		if want := c.d-c.start > 1 || c.sorted; shared != want {
			t.Errorf("d=%d start=%d sorted=%t: tree shares the caller's block: %t, want %t", c.d, c.start, c.sorted, shared, want)
		}
		all := geom.NewBox(make([]geom.Coord, c.d), slices.Repeat([]geom.Coord{1 << 30}, c.d))
		for _, p := range lt.Report(all) {
			at := slices.Index(lt.Points().IDs, p.ID) * c.d
			if &p.X[0] != &lt.Points().Coords[at] {
				t.Fatalf("d=%d start=%d: reported point %d is not a view into the block", c.d, c.start, p.ID)
			}
		}
	}
}

func TestSpaceSavesLogFactor(t *testing.T) {
	// At d=2 the layered tree stores Θ(n log n) array entries like the
	// range tree's nodes, but at d=3 it replaces the last tree level with
	// arrays: layered size must be strictly smaller.
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 512, 3, true)
	lt := Build(pts).Nodes()
	rt := rangetree.Build(pts).Nodes()
	if lt >= rt {
		t.Errorf("layered %d not smaller than range tree %d at d=3", lt, rt)
	}
}

func TestSinglePointAndDuplicates(t *testing.T) {
	pts := []geom.Point{{ID: 0, X: []geom.Coord{5, 5}}}
	lt := Build(pts)
	if lt.Count(geom.NewBox([]geom.Coord{5, 5}, []geom.Coord{5, 5})) != 1 {
		t.Error("single point missed")
	}
	// All-equal coordinates.
	dup := make([]geom.Point, 16)
	for i := range dup {
		dup[i] = geom.Point{ID: int32(i), X: []geom.Coord{7, 7}}
	}
	lt = Build(dup)
	if got := lt.Count(geom.NewBox([]geom.Coord{7, 7}, []geom.Coord{7, 7})); got != 16 {
		t.Errorf("duplicate count = %d, want 16", got)
	}
}

func TestEmptyBoxQuery(t *testing.T) {
	lt := Build(randomPoints(rand.New(rand.NewSource(9)), 40, 2, true))
	b := geom.NewBox([]geom.Coord{30, 1}, []geom.Coord{2, 60})
	if lt.Count(b) != 0 || lt.Report(b) != nil {
		t.Error("inverted box must be empty")
	}
}

// TestCascadeBridgesConsistent verifies the fractional-cascading invariant
// on the flat, sampled layout, through the same bridge arithmetic the
// query uses, against every node's (y, ID) order recomputed from the
// block: the cascade stores M entries per sampled level (0, stride, … and
// the deepest) and each sampled node's run is its recomputed order; at
// every level above the deepest, sampled or not, following a bridge from
// position i lands on the first child entry not smaller than the parent
// entry at i, and the terminal bridge is the child's length. The sizes
// straddle the bucket and the power-of-two padding.
func TestCascadeBridgesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 7, 8, 9, 64, 200, 257, 1100} {
		pts := randomPoints(rng, n, 2, n%2 == 0)
		c := Build(pts).two
		bl, m := c.blk, c.shape.M
		stored := 0
		for k := 0; k <= c.depth; k++ {
			if k%stride == 0 || k == c.depth {
				stored++
			}
		}
		if len(c.idx) != stored*m || c.words != m/64+1 || len(c.bridges) != c.depth*c.words {
			t.Fatalf("n=%d: %d sampled of %d levels hold %d entries, %d rank words of %d per level",
				n, stored, c.depth+1, len(c.idx), len(c.bridges), c.words)
		}
		if w := c.shape.Cap >> c.depth; w > bucket || (c.depth > 0 && w != bucket) {
			t.Fatalf("n=%d: deepest stored nodes are %d wide", n, w)
		}
		input := make([]int32, n)
		for i := range input {
			input[i] = int32(i)
		}
		byX := stableBy(bl, input, 0)
		nodeRun := func(k, lo int) []int32 { return stableBy(bl, byX[lo:min(lo+c.shape.Cap>>k, m)], 1) }
		for k := 0; k <= c.depth; k++ {
			for lo, w := 0, c.shape.Cap>>k; lo < m; lo += w {
				run := nodeRun(k, lo)
				for i := 1; i < len(run); i++ {
					if bl.cmp(run[i-1], run[i], 1) >= 0 {
						t.Fatalf("n=%d level %d node %d: (y, ID) not distinct at %d", n, k, lo, i)
					}
				}
				if c.sampled(k) && !slices.Equal(c.level(k)[lo:lo+len(run)], run) {
					t.Fatalf("n=%d level %d node %d: stored run is not the node's (y, ID) order", n, k, lo)
				}
				if k == c.depth {
					continue
				}
				left, right := nodeRun(k+1, lo), []int32(nil)
				if mid := lo + w/2; mid < m {
					right = nodeRun(k+1, mid)
				}
				for i := range run {
					_, lLo, lHi, rLo, rHi := c.children(k, lo, len(run), i, len(run))
					for _, side := range []struct {
						child    []int32
						at, term int
					}{{left, lLo, lHi}, {right, rLo, rHi}} {
						// child[at] is the first entry ≥ run[i]; child[at-1] < run[i].
						if side.at < len(side.child) && bl.cmp(side.child[side.at], run[i], 1) < 0 {
							t.Fatalf("n=%d level %d node %d: bridge too low at %d", n, k, lo, i)
						}
						if side.at > 0 && bl.cmp(side.child[side.at-1], run[i], 1) >= 0 {
							t.Fatalf("n=%d level %d node %d: bridge too high at %d", n, k, lo, i)
						}
						if side.term != len(side.child) {
							t.Fatalf("n=%d level %d node %d: terminal bridge %d, child holds %d", n, k, lo, side.term, len(side.child))
						}
					}
				}
			}
		}
	}
}

// upperBridgeErr checks the up runs of every three-dimensional layer at or
// under t: for every bridged node v (one whose left child does not share
// its descendant tree) and every root position i ∈ [0, M_v], bridging i
// into either child lands on the first entry of the child's root array —
// its points in (y, ID) order — not below v's root entry i, and i = M_v
// lands on the child's length.
func upperBridgeErr(t *Tree) error {
	if t.Dims-t.StartDim > 3 {
		var err error
		t.eachDesc(func(d *Tree) {
			if err == nil {
				err = upperBridgeErr(d)
			}
		})
		return err
	}
	if t.Dims-t.StartDim != 3 {
		return nil
	}
	bl, y, m := t.blk, t.Dims-1, t.shape.M
	childRoot := func(u int) []int32 {
		if u < len(t.desc) && t.desc[u] != nil {
			c := t.desc[u].two
			return c.idx[:c.shape.M]
		}
		lo, hi := t.shape.PosRange(u) // a bucket: its points sorted here
		run := slices.Clone(t.idx[lo:min(hi, m)])
		slices.SortFunc(run, func(i, j int32) int { return bl.cmp(i, j, y) })
		return run
	}
	for v := 1; v < len(t.desc); v++ {
		l, r := segtree.Left(v), segtree.Right(v)
		if t.desc[v] == nil || (l < len(t.desc) && t.desc[l] == t.desc[v]) {
			continue
		}
		c := t.desc[v].two
		if len(c.bridges) != (c.depth+1)*c.words {
			return fmt.Errorf("node %d: %d rank words, want %d levels and up of %d", v, len(c.bridges), c.depth, c.words)
		}
		root := c.idx[:c.shape.M]
		left, right := childRoot(l), childRoot(r)
		for i := 0; i <= len(root); i++ {
			lAt := c.rank(c.depth, i)
			for _, side := range []struct {
				name  string
				child []int32
				at    int
			}{{"left", left, lAt}, {"right", right, i - lAt}} {
				if i == len(root) {
					if side.at != len(side.child) {
						return fmt.Errorf("node %d: terminal %s bridge %d, child holds %d", v, side.name, side.at, len(side.child))
					}
					continue
				}
				if side.at < 0 || side.at > len(side.child) ||
					(side.at < len(side.child) && bl.cmp(side.child[side.at], root[i], y) < 0) ||
					(side.at > 0 && bl.cmp(side.child[side.at-1], root[i], y) >= 0) {
					return fmt.Errorf("node %d: %s bridge of root entry %d lands on %d", v, side.name, i, side.at)
				}
			}
		}
	}
	return nil
}

// TestUpperBridgesConsistent verifies the up runs that bridge a
// three-dimensional layer's upper levels, at d = 3 (the top layer) and
// d = 4 (the descendant layers), over sizes that straddle the bucket and
// the power-of-two padding and the right-edge sharing sizes. A top-level
// two-dimensional tree carries no up run. Flipping one up bit must fail.
func TestUpperBridgesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []int{3, 4} {
		for _, n := range []int{1, 8, 9, 16, 17, 64, 65, 80, 160, 257, 640} {
			if err := upperBridgeErr(Build(randomPoints(rng, n, d, n%2 == 0))); err != nil {
				t.Fatalf("d=%d n=%d: %v", d, n, err)
			}
		}
	}
	if c := Build(randomPoints(rng, 200, 2, true)).two; len(c.bridges) != c.depth*c.words {
		t.Fatalf("top-level cascade holds %d rank words, want %d levels of %d", len(c.bridges), c.depth, c.words)
	}
	lt := Build(randomPoints(rng, 200, 3, true))
	c := lt.desc[lt.shape.Root()].two
	up := c.bridges[c.depth*c.words:]
	for _, at := range []int{0, 77, c.shape.M - 1} {
		up[at>>6].bits ^= 1 << (at & 63)
		countRanks(up)
		if upperBridgeErr(lt) == nil {
			t.Errorf("flipping up bit %d of the root went unnoticed", at)
		}
		up[at>>6].bits ^= 1 << (at & 63)
		countRanks(up)
	}
	if err := upperBridgeErr(lt); err != nil {
		t.Fatal(err)
	}
}

// TestSharedDescendantCountedOnce pins the right-edge sharing: at
// n = 5·2^k/4 the root's right child keeps all its real points in its own
// left child, so the two nodes must share one descendant tree, Nodes must
// count it once, and answers must still match brute force.
func TestSharedDescendantCountedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{80, 160, 640} {
		pts := randomPoints(rng, n, 3, true)
		lt := Build(pts)
		if r := segtree.Right(lt.shape.Root()); lt.desc[r] == nil || lt.desc[r] != lt.desc[segtree.Left(r)] {
			t.Fatalf("n=%d: right-edge node does not share its left child's descendant tree", n)
		}
		distinct := map[*Tree]bool{}
		want := 0
		for v := 1; v < 2*lt.shape.Cap; v++ {
			if lt.shape.Count(v) > 0 {
				want++
			}
			if v < len(lt.desc) && lt.desc[v] != nil && !distinct[lt.desc[v]] {
				distinct[lt.desc[v]] = true
				want += lt.desc[v].Nodes()
			}
		}
		if got := lt.Nodes(); got != want {
			t.Errorf("n=%d: Nodes() = %d, want %d over %d distinct subtrees", n, got, want, len(distinct))
		}
		if lt.blk.cascades != len(distinct) {
			t.Errorf("n=%d: built %d cascades for %d distinct subtrees", n, lt.blk.cascades, len(distinct))
		}
		agg := NewAgg(lt, semigroup.IntSum(), func(geom.Point) int64 { return 1 })
		bf := brute.New(pts)
		for q := 0; q < 40; q++ {
			b := randomBox(rng, n, 3)
			if got, want := lt.Count(b), bf.Count(b); got != want {
				t.Fatalf("n=%d: count %d want %d", n, got, want)
			}
			if got, want := agg.Query(b), int64(bf.Count(b)); got != want {
				t.Fatalf("n=%d: agg %d want %d", n, got, want)
			}
		}
	}
}

// TestFootprint bounds the live heap one Build retains. The index-only
// layout with rank-word bridges over one columnar point block (4 B of ID
// and 4 B per coordinate a point) and index arrays on the sampled levels
// only retains ≈ 46 B/point at d = 2 and ≈ 287 at d = 3 (4 B of idx per
// entry per sampled level, 2 bits of bridge per entry per level); an
// index array on every level reads ≈ 62 and ≈ 368, a block that also
// keeps a 32-byte header per point ≈ 90 and ≈ 398 on that, int32 bridges
// on top of that ≈ 124 and ≈ 561, and anything that stores points per
// node ≥ 700 and ≥ 6 000. The limits sit between the first two. A
// float64 sum annotation on the same tree is held to its layout: a group
// keeps one 8-byte prefix every prefixStride = 4 stored cascade entries
// and 8 B of f per point (≈ 20 and ≈ 79 B/point; a prefix on every
// stored entry reads ≈ 48 and ≈ 275, on every level ≈ 80 and ≈ 437,
// which the limits fail), at most 0.25× the two slots per entry and the
// same 8 B of f (≈ 104 and ≈ 555) of the segment tree a monoid without
// an Inverse gets.
func TestFootprint(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const n = 4096
	retained := func(build func() any) int64 {
		before := heap()
		v := build()
		per := (heap() - before) / n
		runtime.KeepAlive(v)
		return per
	}
	for _, tc := range []struct{ d, limit, aggLimit int }{{2, 54, 26}, {3, 325, 103}} {
		pts := randomPoints(rand.New(rand.NewSource(41)), n, tc.d, true)
		var lt *Tree
		per := retained(func() any { lt = Build(pts); return lt })
		if per > int64(tc.limit) {
			t.Errorf("d=%d: Build retains %d B/point, limit %d", tc.d, per, tc.limit)
		}
		group := retained(func() any { return NewAgg(lt, semigroup.FloatSum(), workload.WeightOf) })
		tree := retained(func() any { return NewAgg(lt, noInverse(semigroup.FloatSum()), workload.WeightOf) })
		if group > int64(tc.aggLimit) || float64(group) > 0.25*float64(tree) {
			t.Errorf("d=%d: group Agg retains %d B/point, limit %d and 0.25× the segment tree's %d",
				tc.d, group, tc.aggLimit, tree)
		}
		runtime.KeepAlive(lt)
		runtime.KeepAlive(pts)
		t.Logf("d=%d: tree %d B/point, group Agg %d, segment-tree Agg %d", tc.d, per, group, tree)
	}
}
