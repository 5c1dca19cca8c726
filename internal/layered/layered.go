// Package layered implements the layered range tree the paper cites as
// the improved sequential structure (§1): "an improved version of this
// structure, known as the layered range tree, saves a factor of log n in
// the search time". The last two dimensions are replaced by one segment
// tree whose nodes carry arrays sorted by the final coordinate, linked by
// fractional-cascading bridges, so a d-dimensional query costs
// O(log^(d-1) n + k) instead of O(log^d n + k).
//
// Storage is index-only: a tree keeps the caller's point block (a
// geom.Block: an ID column and a coordinate column, no header per point)
// as its own, and every order over it — the upper levels' sorted orders,
// every cascade node's y-sorted array — is a run of int32 indices into
// the block. A one-dimensional tree is the block itself, sorted by the
// final coordinate. The
// bridges are succinct: one bit per entry per level says which child the
// entry went to, and a rank over those bits is the bridge. Only every
// other cascade level keeps its index array (stride); a node between them
// is served by its children's runs, so the index runs a Visitor sees are
// sorted but not maximal. A three-dimensional layer bridges its upper
// levels the same way, so its query binary-searches once, at its root.
// Both recursions stop at a bucket of a few points, which is scanned.
//
// Beyond the sequential extension experiment (E11), the layered tree is
// the one element structure of the distributed pipeline: package core
// builds every forest element and phase-B copy as one and serves phase-C
// subqueries through the zero-allocation Visitor API below.
package layered

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/psort"
	"repro/internal/segtree"
)

// buildSorts counts full comparison sorts performed during construction.
// Construction must sort each needed dimension exactly once at the top and
// split the orders stably down the tree; the test suite asserts the count.
// (The insertion sort of one bucket is not a full sort.)
var buildSorts atomic.Int64

// stride samples a cascade's levels: only levels 0, stride, 2·stride, …
// and the deepest store an index array (and an Agg a table). A contained
// node between them is served by its descendants' runs at the next
// sampled level, which the bridges, kept on every level, give (E40).
const stride = 2

// slot is the stored position of a sampled level k.
func slot(k int) int { return (k + stride - 1) / stride }

// bucket is where both recursions stop: an upper-level node with at most
// bucket points gets no descendant tree, and a cascade stores no level
// below its bucket-point nodes; either is answered by scanning. A power of
// two, so a bucket node is exactly a segment-tree node.
const bucket = 8

// Tree is a layered range tree over dimensions StartDim..Dims-1.
// Three shapes:
//   - one remaining dimension: a sorted array (binary search + scan);
//   - two remaining dimensions: the cascaded structure;
//   - more: a segment tree with descendant layered trees, exactly like the
//     classical range tree's upper dimensions.
type Tree struct {
	Dims     int
	StartDim int

	// blk is the point block every index below refers to, shared by all
	// descendant trees; a one-dimensional tree's is sorted by the final
	// coordinate, and a run of it is the answer.
	blk *block

	// upper levels (Dims-StartDim > 2): idx is the order by StartDim, keys
	// the StartDim coordinate at each position of it, desc[v] the
	// descendant tree of node v. Only nodes wider than a bucket (heap
	// index < Cap/bucket) can have one; a node whose real points all sit
	// in its left child shares that child's tree.
	shape segtree.Shape
	idx   []int32
	keys  []geom.Coord
	desc  []*Tree

	// two remaining dimensions
	two *cascade
}

// block is the tree's point block, which BuildFrom takes from its caller
// and never writes: a comparison is one load from its coordinate column.
type block struct {
	geom.Block
	cascades int // number of cascades built over the block; numbers cascade.ord
}

func (bl *block) coord(i int32, dim int) geom.Coord { return bl.Coords[int(i)*bl.Dims+dim] }

// oneDim reports whether t is a one-dimensional tree: its block, sorted.
func (t *Tree) oneDim() bool { return t.Dims-t.StartDim == 1 }

// cmp is geom.CmpInDim's (X[dim], ID) total order on block indices — the
// top-level sorts, the bucket sorts and the cascade merges must agree on it
// (the stable partitions follow the sorted orders by position). The sorts
// encode it in packed words rather than call it; the tests check their
// orders against it.
func (bl *block) cmp(i, j int32, dim int) int {
	if a, b := bl.coord(i, dim), bl.coord(j, dim); a != b {
		return cmp.Compare(a, b)
	}
	return cmp.Compare(bl.IDs[i], bl.IDs[j])
}

// cascade is the fractional-cascading structure for the final two
// dimensions: a segment tree over dimension x whose every node has its
// points sorted by (y, ID), kept as two flat level-major arrays. Every
// level of the segment tree is a permutation of the same M points, so a
// sampled level k (see stride) is the run level(k) and the node at depth k
// whose first leaf position is lo owns the sub-run starting at lo: no
// per-node slices exist. Levels run from the root down to the bucket-point
// nodes; an unsampled one is only its bridges.
type cascade struct {
	blk   *block
	x, y  int // global dimension indices
	ord   int // ordinal among the block's cascades (Agg's table index)
	shape segtree.Shape
	depth int          // deepest level
	words int          // rank words per bridge run: M/64+1, so position M has one
	xkeys []geom.Coord // x-coordinate by leaf position (node spans)
	ykeys []geom.Coord // y-coordinate by position in the root's run (the one binary search)
	idx   []int32      // (slot(depth)+1)·M block indices, the sampled levels'
	// bridges holds one run of words rank words per level above the
	// deepest: bit i of run k is set when entry k·M+i lies in its node's
	// left child (see children). A cascade that is the descendant of a
	// three-dimensional layer's upper node v has one run more, up, at
	// depth·words: bit i is set when root entry i lies in v's left upper
	// child (see Tree.bridge).
	bridges []rankWord
}

// sampled reports whether level k stores its index array.
func (c *cascade) sampled(k int) bool { return k%stride == 0 || k == c.depth }

// level is the stored index array of sampled level k.
func (c *cascade) level(k int) []int32 { return c.idx[slot(k)*c.shape.M:][:c.shape.M] }

// rankWord is 64 bridge bits and the count of the bits set before them in
// their run, side by side so that a rank is one load and one popcount.
type rankWord struct{ before, bits uint64 }

// rank counts the set bits before position p of bridge run k.
func (c *cascade) rank(k, p int) int {
	w := &c.bridges[k*c.words+p>>6]
	return int(w.before) + bits.OnesCount64(w.bits&(1<<(p&63)-1))
}

// mark sets bit p of the bridge run ws.
func mark(ws []rankWord, p int) { ws[p>>6].bits |= 1 << (p & 63) }

// countRanks fills each word's before once its run's bits are set.
func countRanks(ws []rankWord) {
	n := 0
	for i := range ws {
		ws[i].before = uint64(n)
		n += bits.OnesCount64(ws[i].bits)
	}
}

// Build constructs a layered range tree over all dimensions of pts, from
// a block copy of them.
func Build(pts []geom.Point) *Tree {
	if len(pts) == 0 {
		panic("layered: empty point set")
	}
	return BuildFrom(geom.BlockOf(pts, pts[0].Dims()), 0)
}

// BuildFrom constructs a layered range tree over dimensions
// startDim..Dims-1 only — the shape of the paper's forest elements, which
// are range trees "of dimension j ≤ d" (Definition 3). The tree keeps pts
// as its block and never writes to it, so trees may share one block; a
// one-dimensional tree over a block not yet sorted by the final
// coordinate keeps a sorted copy instead.
func BuildFrom(pts geom.Block, startDim int) *Tree {
	n, dims := pts.Len(), pts.Dims
	if n == 0 {
		panic("layered: empty point set")
	}
	if startDim < 0 || startDim >= dims || len(pts.Coords) != n*dims {
		panic("layered: startDim out of range or a malformed block")
	}
	bl := &block{Block: pts}
	remaining := dims - startDim
	if remaining == 1 {
		if !bl.sortedIn(dims - 1) {
			bl.Block = bl.gather(bl.sortedBy(dims-1, make([]uint64, 2*n)))
		}
		return &Tree{Dims: dims, StartDim: startDim, blk: bl}
	}
	// Sort once per dimension that needs an explicit order. The cascade's
	// y-sorted arrays come out of the bottom-up merge for free, so only
	// dimensions startDim..dims-2 are sorted; every level below reuses its
	// part of these orders by stable partition, keeping construction
	// within O(n·log^(d-1) n).
	orders := make([][]int32, remaining-1)
	scratch := make([]uint64, 2*n)
	for k := range orders {
		orders[k] = bl.sortedBy(startDim+k, scratch)
	}
	bd := &builder{blk: bl, dims: dims, start: startDim, ykeys: make([]geom.Coord, n), order: make([]int32, (stride-1)*n)}
	if remaining > 2 {
		bd.pos = make([]int32, (remaining-2)*n)
	}
	return bd.levels(orders, startDim)
}

// Points is the tree's point block: read-only, shared with the caller
// that built the tree and with every view a query hands out.
func (t *Tree) Points() *geom.Block { return &t.blk.Block }

// sortedIn reports whether the block is already in cmp's order on dim.
func (bl *block) sortedIn(dim int) bool {
	for i := int32(1); int(i) < bl.Len(); i++ {
		if bl.cmp(i-1, i, dim) > 0 {
			return false
		}
	}
	return true
}

// gather is a new block of the points order names, in that order.
func (bl *block) gather(order []int32) geom.Block {
	d := bl.Dims
	out := geom.Block{Dims: d, IDs: make([]int32, len(order)), Coords: make([]geom.Coord, len(order)*d)}
	for at, i := range order {
		out.IDs[at] = bl.IDs[i]
		copy(out.Coords[at*d:(at+1)*d], bl.Coords[int(i)*d:])
	}
	return out
}

// sortedBy returns the block's indices ordered by (X[dim], ID). It packs
// one word per point, the sign-flipped coordinate (so the coordinates
// order as unsigned) over the point's index, and psort's radix kernel
// sorts the words on their upper half: the index is the payload that
// names the point, and, being distinct and increasing, it makes the
// order of equal coordinates input order. Then each run of equal
// coordinates is put into ID order, stably, so the whole is a stable
// sort under cmp even where two points share a coordinate and an ID.
// scratch holds 2·bl.Len() words: the packed words and the kernel's
// other vector.
func (bl *block) sortedBy(dim int, scratch []uint64) []int32 {
	buildSorts.Add(1)
	n := bl.Len()
	packed := scratch[:n]
	for i := range packed {
		packed[i] = uint64(uint32(bl.coord(int32(i), dim))^1<<31)<<32 | uint64(i)
	}
	packed = psort.RadixWords(packed, scratch[n:2*n], 32)
	out := make([]int32, n)
	for at, w := range packed {
		out[at] = int32(uint32(w))
	}
	for lo, hi := 0, 0; lo < len(out); lo = hi {
		for hi = lo + 1; hi < len(out) && packed[hi]>>32 == packed[lo]>>32; hi++ {
		}
		if hi-lo > 1 {
			slices.SortStableFunc(out[lo:hi], func(i, j int32) int { return cmp.Compare(bl.IDs[i], bl.IDs[j]) })
		}
	}
	return out
}

// sortBucket orders one bottom run of a cascade, at most a bucket of
// block indices, by (X[dim], ID): an insertion sort on packed words, the
// sign-flipped coordinate over the sign-flipped ID, that moves each index
// beside its word. It is stable, so indices of equal words keep their x
// order, as a stable sort under cmp keeps them.
func (bl *block) sortBucket(run []int32, dim int) {
	var words [bucket]uint64
	for k, i := range run {
		words[k] = uint64(uint32(bl.coord(i, dim))^1<<31)<<32 | uint64(uint32(bl.IDs[i])^1<<31)
	}
	for k := 1; k < len(run); k++ {
		w, i, at := words[k], run[k], k
		for ; at > 0 && words[at-1] > w; at-- {
			words[at], run[at] = words[at-1], run[at-1]
		}
		words[at], run[at] = w, i
	}
}

// builder carries what one BuildFrom shares across its recursion.
type builder struct {
	blk   *block
	dims  int
	start int // the built tree's StartDim: a deeper two-dimensional tree is a descendant
	// pos holds one n-slot table per upper dimension: while the upper tree
	// of that dimension is being split, pos[i] is point i's position in
	// its order. Sibling trees of one dimension are built one after the
	// other, so they can share the table.
	pos []int32
	// ykeys is the cascade merges' n-slot scratch: the y-coordinates of
	// every other level (the levels between live in the cascade's own
	// ykeys, which ends up holding the root's).
	ykeys []geom.Coord
	// order holds the merges' unsampled levels: stride-1 runs of n slots.
	order []int32
}

// levels builds the tree for orders[0] (sorted by startDim) and attaches
// descendant trees built from stable splits of the remaining orders.
// orders covers dimensions startDim..dims-2.
func (bd *builder) levels(orders [][]int32, startDim int) *Tree {
	bl := bd.blk
	t := &Tree{Dims: bd.dims, StartDim: startDim, blk: bl}
	if bd.dims-startDim == 2 {
		t.two = bd.cascade(orders[0], startDim, startDim+1, startDim > bd.start)
		return t
	}
	m := len(orders[0])
	t.idx = orders[0]
	t.shape = segtree.NewShape(m)
	t.keys = make([]geom.Coord, m)
	n := bl.Len()
	pos := bd.pos[(bd.dims-startDim-3)*n:][:n]
	for at, i := range t.idx {
		t.keys[at] = bl.coord(i, startDim)
		pos[i] = int32(at)
	}
	t.desc = make([]*Tree, t.shape.Cap/bucket)
	// Split the deeper orders down the heap: tails is node v's part of
	// each. A node with more than a bucket of points gets descendant(v)
	// built from it.
	var fill func(v int, tails [][]int32)
	fill = func(v int, tails [][]int32) {
		c := len(tails[0])
		if c <= bucket {
			return
		}
		lo, _ := t.shape.PosRange(v)
		mid := lo + t.shape.Cap>>(segtree.Depth(v)+1) // first position of right child
		if mid >= lo+c {
			// All real points are in the left child: one tree serves both.
			fill(segtree.Left(v), tails)
			t.desc[v] = t.desc[segtree.Left(v)]
			return
		}
		t.desc[v] = bd.levels(tails, startDim+1)
		if c := t.desc[v].two; c != nil {
			// A three-dimensional layer: bridge v's y order, the root run
			// of its cascade, into its children's. Each word is built in
			// a register, without a branch per entry.
			root, up := c.idx[:c.shape.M], c.bridges[c.depth*c.words:]
			for w := range up {
				var word uint64
				for b, i := range root[min(w<<6, len(root)):min(w<<6+64, len(root))] {
					var left uint64
					if int(pos[i]) < mid {
						left = 1
					}
					word |= left << b
				}
				up[w].bits = word
			}
			countRanks(up)
		}
		// Both children have real points: split each deeper order stably
		// by position in this tree's order.
		cl := mid - lo
		lefts, rights := make([][]int32, len(tails)), make([][]int32, len(tails))
		for k, tail := range tails {
			split := make([]int32, c)
			l, r := 0, cl
			for _, i := range tail {
				if int(pos[i]) < mid {
					split[l] = i
					l++
				} else {
					split[r] = i
					r++
				}
			}
			lefts[k], rights[k] = split[:cl], split[cl:]
		}
		fill(segtree.Left(v), lefts)
		fill(segtree.Right(v), rights)
	}
	fill(t.shape.Root(), orders[1:])
	return t
}

// cascade assembles the two-dimensional cascaded structure bottom-up from
// the x-sorted leaf order: the deepest level sorts each bucket by (y, ID),
// every level above merges its children's runs (yielding the y order with
// no further sorting), and the merge marks the bridge bit of every entry it
// takes from the left child. Each level's y-coordinates travel beside it,
// so a merge step compares two sequential loads and looks an ID up only on
// a tie. up reserves one more run, which levels fills when the cascade
// belongs to an upper node of a three-dimensional layer.
func (bd *builder) cascade(byX []int32, x, y int, up bool) *cascade {
	bl := bd.blk
	m := len(byX)
	c := &cascade{blk: bl, x: x, y: y, ord: bl.cascades, shape: segtree.NewShape(m), words: m/64 + 1}
	bl.cascades++
	c.depth = max(0, c.shape.Height()-segtree.Log2(bucket))
	c.xkeys = make([]geom.Coord, m)
	for at, i := range byX {
		c.xkeys[at] = bl.coord(i, x)
	}
	c.ykeys = make([]geom.Coord, m)
	c.idx = make([]int32, (slot(c.depth)+1)*m)
	runs := c.depth
	if up {
		runs++
	}
	c.bridges = make([]rankWord, runs*c.words)
	// Level k's keys live in c.ykeys when k is even, so level 0's stay.
	keysOf := func(k int) []geom.Coord {
		if k%2 == 0 {
			return c.ykeys
		}
		return bd.ykeys[:m]
	}
	orderOf := func(k int) []int32 {
		if c.sampled(k) {
			return c.level(k)
		}
		return bd.order[k%(stride-1)*bl.Len():][:m]
	}

	bottom, bottomKeys := orderOf(c.depth), keysOf(c.depth)
	copy(bottom, byX)
	for lo, w := 0, c.shape.Cap>>c.depth; lo < m; lo += w {
		bl.sortBucket(bottom[lo:min(lo+w, m)], y)
	}
	for at, i := range bottom {
		bottomKeys[at] = bl.coord(i, y)
	}
	for k := c.depth - 1; k >= 0; k-- {
		level, below := orderOf(k), orderOf(k+1)
		keys, keysBelow := keysOf(k), keysOf(k+1)
		left := c.bridges[k*c.words : (k+1)*c.words]
		for lo, w := 0, c.shape.Cap>>k; lo < m; lo += w {
			mid, hi := min(lo+w/2, m), min(lo+w, m)
			i, j, at := lo, mid, lo
			for ; i < mid && j < hi; at++ {
				ki, kj := keysBelow[i], keysBelow[j]
				if kj < ki || (kj == ki && bl.IDs[below[j]] < bl.IDs[below[i]]) {
					level[at], keys[at] = below[j], kj
					j++
				} else {
					level[at], keys[at] = below[i], ki
					mark(left, at)
					i++
				}
			}
			for ; i < mid; i, at = i+1, at+1 {
				level[at], keys[at] = below[i], keysBelow[i]
				mark(left, at)
			}
			// The right child's tail is already in place (at == j).
			copy(level[j:hi], below[j:hi])
			copy(keys[j:hi], keysBelow[j:hi])
		}
		countRanks(left)
	}
	return c
}

// N reports the number of points.
func (t *Tree) N() int {
	switch {
	case t.oneDim():
		return t.blk.Len()
	case t.two != nil:
		return t.two.shape.M
	default:
		return len(t.idx)
	}
}

// Nodes reports the structure size in logical entries (array slots plus
// tree nodes), not stored bytes: every cascade level counts, sampled or
// not, so it stays comparable to rangetree.Tree.Nodes for E11's space
// column. A descendant tree shared by a node and its left child counts once.
func (t *Tree) Nodes() int {
	switch {
	case t.oneDim():
		return t.blk.Len()
	case t.two != nil:
		return (t.two.depth + 1) * t.two.shape.M
	default:
		total := 0
		for v := 1; v < 2*t.shape.Cap; v++ {
			if t.shape.Count(v) > 0 {
				total++
			}
		}
		t.eachDesc(func(d *Tree) { total += d.Nodes() })
		return total
	}
}

// eachDesc calls fn once per distinct descendant tree of an upper level.
func (t *Tree) eachDesc(fn func(*Tree)) {
	for v := 1; v < len(t.desc); v++ {
		if d := t.desc[v]; d != nil && d != t.desc[segtree.Parent(v)] {
			fn(d)
		}
	}
}

// Visitor receives a query result without per-node allocations, as rows
// of the tree's point block: a run of rows, an index run, or one row.
// Together the callbacks cover R(q) exactly once. The block and the index
// runs are the tree's own arrays, read-only: a point or coordinate a
// visitor keeps (blk.Point's view included) aliases the block and must
// never be written. A reused Visitor implementation makes the whole
// descent allocation-free — the property the distributed pipeline's
// phase-C serving relies on.
type Visitor interface {
	// VisitRun observes rows lo..hi-1 of a one-dimensional tree's block,
	// sorted by the final coordinate.
	VisitRun(blk *geom.Block, lo, hi int)
	// VisitIndexed observes one run of a cascade: the rows idx of blk,
	// sorted by the final coordinate but not maximal (a node the query
	// contains may arrive as its descendants' runs).
	VisitIndexed(blk *geom.Block, idx []int32)
	// VisitRow observes one individually verified row.
	VisitRow(blk *geom.Block, i int32)
}

// Visit enumerates the query result through v (non-nil), with no adapter
// between the descent and the consumer.
func (t *Tree) Visit(b geom.Box, v Visitor) {
	if b.Dims() != t.Dims {
		panic("layered: query dimensionality mismatch")
	}
	t.scan(b, v)
}

// scan is the shared traversal behind Visit, Count and Report; it returns
// the number of rows found. A nil s (Count) wants only that number, so a
// contained node adds its run's length and reads no index array. Agg.Query
// mirrors it with a threaded accumulator (agg.go), because the aggregate
// tables are keyed by the structural positions this descent resolves.
func (t *Tree) scan(b geom.Box, s Visitor) int {
	switch {
	case t.oneDim():
		lo, hi := t.oneRange(b) // lo ≤ hi
		if lo < hi && s != nil {
			s.VisitRun(&t.blk.Block, lo, hi)
		}
		return hi - lo
	case t.two != nil:
		c := t.two
		ivx := b.Dim(c.x)
		if pLo, pHi := c.rootRange(b.Dim(c.y)); pLo < pHi && !ivx.Empty() {
			return c.descend(0, 0, pLo, pHi, ivx, s)
		}
	default:
		if iv := b.Dim(t.StartDim); !iv.Empty() {
			if pLo, pHi := t.rootRun(b); pLo < pHi {
				return t.descend(t.shape.Root(), b, iv, pLo, pHi, s)
			}
		}
	}
	return 0
}

// oneRange is the run of a one-dimensional tree inside b.
func (t *Tree) oneRange(b geom.Box) (lo, hi int) {
	dim := t.Dims - 1
	iv := b.Dim(dim)
	if iv.Empty() {
		return 0, 0
	}
	keys, n := t.blk.Coords[dim:], t.blk.Len()
	hi = n
	if iv.Hi < maxCoord {
		hi = search(keys, t.blk.Dims, n, iv.Hi+1)
	}
	return search(keys, t.blk.Dims, n, iv.Lo), hi
}

// upperCase classifies node v of an upper level against the query interval.
type upperCase int8

const (
	upperMiss   upperCase = iota // no point of v can match
	upperBucket                  // at most bucket points: scan positions lo..hi
	upperWhole                   // v's whole span is inside iv: ask desc[v]
	upperSplit                   // descend into both children
)

// classify is the upper-level four-case test shared by scan and Agg.
func (t *Tree) classify(v int, iv geom.Interval) (c upperCase, lo, hi int) {
	lo, hi = t.shape.PosRange(v)
	if lo >= t.shape.M {
		return upperMiss, lo, hi
	}
	hi = min(hi, t.shape.M)
	span := geom.Interval{Lo: t.keys[lo], Hi: t.keys[hi-1]}
	switch {
	case !iv.Overlaps(span):
		return upperMiss, lo, hi
	case hi-lo <= bucket:
		return upperBucket, lo, hi
	case iv.ContainsInterval(span):
		return upperWhole, lo, hi
	}
	return upperSplit, lo, hi
}

// rootRun starts an upper descent's y-run. A three-dimensional layer
// binary-searches the root's descendant cascade, once per query, and
// bridge carries the run down; any other layer carries its whole range,
// which bridge never narrows.
func (t *Tree) rootRun(b geom.Box) (pLo, pHi int) {
	r := t.shape.Root()
	if r >= len(t.desc) || t.desc[r].two == nil { // the root is a bucket, or the layer is wider
		return 0, t.N()
	}
	c := t.desc[r].two
	if b.Dim(c.x).Empty() {
		return 0, 0
	}
	return c.rootRange(b.Dim(c.y))
}

// bridge carries node v's y-run [pLo, pHi) — the matching entries of
// desc[v]'s root array, in (y, ID) order — into its children's: a rank
// over desc[v]'s up run for the left child, the complement for the right.
// A child that shares v's descendant tree keeps the run (the other one is
// empty); a bucket child gets one too, and ignores it but for pruning.
func (t *Tree) bridge(v, pLo, pHi int) (lLo, lHi, rLo, rHi int) {
	c := t.desc[v].two
	if c == nil { // a layer above three dimensions: nothing to bridge
		return pLo, pHi, pLo, pHi
	}
	if l := segtree.Left(v); l < len(t.desc) && t.desc[l] == t.desc[v] {
		return pLo, pHi, 0, 0
	}
	lLo, lHi = c.rank(c.depth, pLo), c.rank(c.depth, pHi)
	return lLo, lHi, pLo - lLo, pHi - lHi
}

// descend is the upper-level descent as a plain recursive method (no
// per-query closures), over node v's non-empty y-run [pLo, pHi).
func (t *Tree) descend(v int, b geom.Box, iv geom.Interval, pLo, pHi int, s Visitor) (n int) {
	c, lo, hi := t.classify(v, iv)
	switch c {
	case upperBucket:
		for at := lo; at < hi; at++ {
			if !iv.Contains(t.keys[at]) {
				continue
			}
			if i := t.idx[at]; b.ContainsFrom(t.blk.Point(int(i)), t.StartDim+1) {
				n++
				if s != nil {
					s.VisitRow(&t.blk.Block, i)
				}
			}
		}
	case upperWhole:
		if d := t.desc[v]; d.two != nil { // bridged: the run is the cascade's
			return d.two.descend(0, 0, pLo, pHi, b.Dim(d.two.x), s)
		}
		return t.desc[v].scan(b, s)
	case upperSplit:
		lLo, lHi, rLo, rHi := t.bridge(v, pLo, pHi)
		if lLo < lHi {
			n += t.descend(segtree.Left(v), b, iv, lLo, lHi, s)
		}
		if rLo < rHi {
			n += t.descend(segtree.Right(v), b, iv, rLo, rHi, s)
		}
	}
	return n
}

// rootRange is the run of the root's y-sorted array inside ivy: the one
// binary search of a cascaded query, and of a three-dimensional layer's
// (rootRun).
func (c *cascade) rootRange(ivy geom.Interval) (pLo, pHi int) {
	if ivy.Empty() {
		return 0, 0
	}
	pHi = len(c.ykeys)
	if ivy.Hi < maxCoord {
		pHi = search(c.ykeys, 1, len(c.ykeys), ivy.Hi+1)
	}
	return search(c.ykeys, 1, len(c.ykeys), ivy.Lo), pHi
}

// span is the x-extent of the node at depth k whose first leaf position
// is lo, and hi one past its last real leaf position.
func (c *cascade) span(k, lo int) (hi int, span geom.Interval) {
	hi = min(lo+c.shape.Cap>>k, c.shape.M)
	return hi, geom.Interval{Lo: c.xkeys[lo], Hi: c.xkeys[hi-1]}
}

// children follows the bridges of the n-entry node (k, lo): positions
// [pLo, pHi) of its array become [lLo, lHi) of the left child's (first
// leaf lo) and [rLo, rHi) of the right child's (first leaf mid). Entry i's
// left bridge is the number of the node's first i entries marked left:
// a rank on level k, less lo/2, since every node before lo on the level is
// full and sent exactly half its entries left. The right bridge is i less
// the left one, and the terminal bridge (i = n) is the left child's length,
// which the shape gives. Requires pLo < pHi.
func (c *cascade) children(k, lo, n, pLo, pHi int) (mid, lLo, lHi, rLo, rHi int) {
	mid = lo + c.shape.Cap>>(k+1)
	lLo = c.rank(k, lo+pLo) - lo/2
	lHi = min(mid, c.shape.M) - lo
	if pHi < n {
		lHi = c.rank(k, lo+pHi) - lo/2
	}
	return mid, lLo, lHi, pLo - lLo, pHi - lHi
}

// descend runs the cascaded query below the root's binary search, over
// the non-empty run [pLo, pHi) of y-matching entries of node (k, lo): O(1)
// bridge arithmetic per visited node, and an x-filter over the y-matching
// entries of a bucket node the query cuts.
func (c *cascade) descend(k, lo, pLo, pHi int, ivx geom.Interval, s Visitor) (n int) {
	hi, span := c.span(k, lo)
	if !ivx.Overlaps(span) {
		return 0
	}
	switch {
	case ivx.ContainsInterval(span):
		if s != nil {
			c.whole(k, lo, hi-lo, pLo, pHi, s)
		}
		return pHi - pLo
	case k == c.depth:
		for _, i := range c.level(k)[lo+pLo : lo+pHi] {
			if ivx.Contains(c.blk.coord(i, c.x)) {
				n++
				if s != nil {
					s.VisitRow(&c.blk.Block, i)
				}
			}
		}
	default:
		mid, lLo, lHi, rLo, rHi := c.children(k, lo, hi-lo, pLo, pHi)
		if lLo < lHi {
			n += c.descend(k+1, lo, lLo, lHi, ivx, s)
		}
		if rLo < rHi {
			n += c.descend(k+1, mid, rLo, rHi, ivx, s)
		}
	}
	return n
}

// whole visits the non-empty run [pLo, pHi) of the n-entry node (k, lo),
// which the query contains: one index run at a sampled level, else its
// two children's runs, which the bridges give.
func (c *cascade) whole(k, lo, n, pLo, pHi int, s Visitor) {
	if c.sampled(k) {
		s.VisitIndexed(&c.blk.Block, c.level(k)[lo+pLo:lo+pHi])
		return
	}
	mid, lLo, lHi, rLo, rHi := c.children(k, lo, n, pLo, pHi)
	if lLo < lHi {
		c.whole(k+1, lo, min(mid-lo, n), lLo, lHi, s)
	}
	if rLo < rHi {
		c.whole(k+1, mid, lo+n-mid, rLo, rHi, s)
	}
}

// maxCoord guards bound+1 overflow on unbounded boxes.
const maxCoord = 1<<31 - 1

// search returns the first of the n sorted keys keys[0], keys[stride], …
// that is ≥ bound (a manual lower bound: this sits on the query hot path,
// where sort.Search's closure overhead is measurable).
func search(keys []geom.Coord, stride, n int, bound geom.Coord) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid*stride] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// reportSink appends the result, as views into the block, into a reused
// buffer.
type reportSink struct{ out []geom.Point }

func (s *reportSink) VisitRun(b *geom.Block, lo, hi int) {
	s.out = slices.Grow(s.out, hi-lo)
	for i := lo; i < hi; i++ {
		s.out = append(s.out, b.Point(i))
	}
}
func (s *reportSink) VisitIndexed(b *geom.Block, idx []int32) {
	s.out = slices.Grow(s.out, len(idx))
	for _, i := range idx {
		s.out = append(s.out, b.Point(int(i)))
	}
}
func (s *reportSink) VisitRow(b *geom.Block, i int32) { s.out = append(s.out, b.Point(int(i))) }

// Report returns the points of b: read-only views into the tree's block.
func (t *Tree) Report(b geom.Box) []geom.Point {
	if b.Dims() != t.Dims {
		panic("layered: query dimensionality mismatch")
	}
	var s reportSink
	t.scan(b, &s)
	return s.out
}

// Count returns |R(q)|, without materializing it and without allocating.
func (t *Tree) Count(b geom.Box) int {
	if b.Dims() != t.Dims {
		panic("layered: query dimensionality mismatch")
	}
	return t.scan(b, nil)
}
