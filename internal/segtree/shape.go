// Package segtree implements the structural mathematics of the paper's
// segment trees (§2.1): a (1,n) segment tree is a complete rooted binary
// tree whose nodes are addressed by heap indices (root 1, children 2i and
// 2i+1 — exactly the paper's Definition 2 Index arithmetic), its canonical
// interval decomposition, the Index/Level/Path labeling of Definition 2,
// and the hat cut of Definition 3 (maximal nodes whose canonical point set
// has at most n/p points).
//
// The package is deliberately value-oriented: a Shape carries no point
// data, so the sequential range tree, the distributed hat and the test
// suites all share one implementation of the tree geometry.
package segtree

import "math/bits"

// Shape describes the geometry of a complete segment tree over M real
// leaves padded to Cap = 2^⌈log2 M⌉ leaf slots. Leaf positions are 0-based;
// node identifiers are heap indices in [1, 2·Cap).
type Shape struct {
	M   int // number of real leaves (points)
	Cap int // padded leaf capacity, a power of two, Cap ≥ max(M,1)
}

// NewShape returns the shape of a segment tree over m real leaves.
func NewShape(m int) Shape {
	if m < 0 {
		panic("segtree: negative leaf count")
	}
	return Shape{M: m, Cap: ceilPow2(max(m, 1))}
}

// ceilPow2 returns the smallest power of two ≥ x (x ≥ 1).
func ceilPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(x - 1)))
}

// Log2 returns ⌊log2 x⌋ for x ≥ 1.
func Log2(x int) int { return bits.Len(uint(x)) - 1 }

// Height is the level of the root: log2(Cap).
func (s Shape) Height() int { return Log2(s.Cap) }

// NumNodes is the number of heap slots, 2·Cap − 1.
func (s Shape) NumNodes() int { return 2*s.Cap - 1 }

// Root is the heap index of the root.
func (s Shape) Root() int { return 1 }

// Depth returns the distance of node v from the root.
func Depth(v int) int { return Log2(v) }

// Level returns the paper's Level(v): the distance from v to the leaf
// layer (0 for leaves, Height for the root). This matches Definition 2(i)
// because the tree is complete.
func (s Shape) Level(v int) int { return s.Height() - Depth(v) }

// Left and Right return the children of an internal node.
func Left(v int) int   { return 2 * v }
func Right(v int) int  { return 2*v + 1 }
func Parent(v int) int { return v / 2 }

// LeafNode returns the heap index of the leaf slot at position pos.
func (s Shape) LeafNode(pos int) int { return s.Cap + pos }

// PosRange returns the leaf-position interval [lo, hi) covered by node v
// (including padding positions).
func (s Shape) PosRange(v int) (lo, hi int) {
	level := s.Level(v)
	width := 1 << level
	first := (v << level) - s.Cap
	return first, first + width
}

// Count returns the canonical count c(v): the number of real leaves under
// v. The hat cut of Definition 3 is expressed in terms of this quantity.
func (s Shape) Count(v int) int {
	lo, hi := s.PosRange(v)
	if lo >= s.M {
		return 0
	}
	return min(hi, s.M) - lo
}

// Cover enumerates the canonical decomposition of the leaf-position
// interval [lo, hi) — the unique minimal set of maximal nodes whose leaf
// ranges partition it (at most 2 nodes per level, Fig. 1). visit is called
// in left-to-right order. Empty or inverted intervals visit nothing.
func (s Shape) Cover(lo, hi int, visit func(v int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.Cap {
		hi = s.Cap
	}
	if lo >= hi {
		return
	}
	// Standard iterative canonical cover on the leaf indices, collecting
	// right-side nodes in reverse to preserve left-to-right order.
	l := s.Cap + lo
	r := s.Cap + hi // exclusive
	var rights []int
	for l < r {
		if l&1 == 1 {
			visit(l)
			l++
		}
		if r&1 == 1 {
			r--
			rights = append(rights, r)
		}
		l >>= 1
		r >>= 1
	}
	for i := len(rights) - 1; i >= 0; i-- {
		visit(rights[i])
	}
}

// Stub is a leaf of the hat: a maximal node whose canonical count is at
// most the grain (Definition 3: level(v) = log n − log p when n and p are
// powers of two). The subtree of the range tree rooted at a stub is a
// forest element.
type Stub struct {
	Node   int // heap index
	PosLo  int // first real leaf position covered
	PosHi  int // one past the last real leaf position covered
	Count  int // PosHi − PosLo
	Level_ int // Level(Node)
}

// Stubs returns the stubs of the shape for the given grain in
// left-to-right order: the maximal nodes v with 1 ≤ c(v) ≤ grain. For
// M ≤ grain the root itself is the only stub. Padding-only subtrees are
// skipped.
func (s Shape) Stubs(grain int) []Stub {
	if grain < 1 {
		panic("segtree: grain must be ≥ 1")
	}
	var out []Stub
	var rec func(v int)
	rec = func(v int) {
		c := s.Count(v)
		if c == 0 {
			return
		}
		if c <= grain {
			lo, hi := s.PosRange(v)
			if hi > s.M {
				hi = s.M
			}
			out = append(out, Stub{Node: v, PosLo: lo, PosHi: hi, Count: hi - lo, Level_: s.Level(v)})
			return
		}
		rec(Left(v))
		rec(Right(v))
	}
	rec(s.Root())
	return out
}

// StubContaining returns the index into stubs of the stub whose position
// range contains pos. stubs must be the output of Stubs (sorted by PosLo).
func StubContaining(stubs []Stub, pos int) int {
	lo, hi := 0, len(stubs)
	for lo < hi {
		mid := (lo + hi) / 2
		if stubs[mid].PosHi <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
