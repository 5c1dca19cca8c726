// Package kdtree implements the multidimensional binary tree ("k-D tree")
// the paper cites as the optimal-space baseline: Θ(dn) space but a
// discouraging O(d·n^(1−1/d) + k) worst-case search (§1, [Bentley]). The E5
// experiment compares it against the range tree to reproduce the paper's
// space/time trade-off argument.
package kdtree

import (
	"sort"

	"repro/internal/geom"
)

// DefaultBucket is the leaf bucket size; small enough that pruning
// dominates, large enough to keep the tree shallow.
const DefaultBucket = 16

// Tree is a bucketed k-d tree over d-dimensional rank points.
type Tree struct {
	dims int
	n    int
	root *node
}

type node struct {
	// Bounding box of all points below the node, used both for pruning
	// and for whole-subtree reporting.
	lo, hi []geom.Coord
	count  int
	// Internal nodes.
	axis        int
	left, right *node
	// Leaves.
	pts []geom.Point
}

// Build constructs a k-d tree by recursive median splits, cycling through
// the axes.
func Build(pts []geom.Point) *Tree {
	if len(pts) == 0 {
		panic("kdtree: empty point set")
	}
	t := &Tree{dims: pts[0].Dims(), n: len(pts)}
	own := make([]geom.Point, len(pts))
	copy(own, pts)
	t.root = t.build(own, 0)
	return t
}

func (t *Tree) build(pts []geom.Point, depth int) *node {
	nd := &node{count: len(pts)}
	nd.lo = make([]geom.Coord, t.dims)
	nd.hi = make([]geom.Coord, t.dims)
	for j := 0; j < t.dims; j++ {
		nd.lo[j], nd.hi[j] = pts[0].X[j], pts[0].X[j]
	}
	for _, p := range pts[1:] {
		for j := 0; j < t.dims; j++ {
			if p.X[j] < nd.lo[j] {
				nd.lo[j] = p.X[j]
			}
			if p.X[j] > nd.hi[j] {
				nd.hi[j] = p.X[j]
			}
		}
	}
	if len(pts) <= DefaultBucket {
		nd.pts = pts
		return nd
	}
	axis := depth % t.dims
	nd.axis = axis
	// Median split with (coord, ID) tie-breaking keeps the tree balanced
	// even under duplicate coordinates.
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].X[axis] != pts[b].X[axis] {
			return pts[a].X[axis] < pts[b].X[axis]
		}
		return pts[a].ID < pts[b].ID
	})
	mid := len(pts) / 2
	nd.left = t.build(pts[:mid], depth+1)
	nd.right = t.build(pts[mid:], depth+1)
	return nd
}

// N reports the number of points.
func (t *Tree) N() int { return t.n }

// Nodes reports the number of tree nodes (space accounting for E5).
func (t *Tree) Nodes() int {
	var rec func(*node) int
	rec = func(nd *node) int {
		if nd == nil {
			return 0
		}
		return 1 + rec(nd.left) + rec(nd.right)
	}
	return rec(t.root)
}

// boxRelation classifies node bounds against the query: 0 disjoint,
// 1 partial overlap, 2 node fully inside the query.
func boxRelation(b geom.Box, lo, hi []geom.Coord) int {
	inside := true
	for j := range lo {
		if hi[j] < b.Lo[j] || lo[j] > b.Hi[j] {
			return 0
		}
		if lo[j] < b.Lo[j] || hi[j] > b.Hi[j] {
			inside = false
		}
	}
	if inside {
		return 2
	}
	return 1
}

// Visit walks the query result: whole calls once per pruned-in subtree,
// single per individually verified point. Used by Count/Report and by the
// benchmarks that count visited nodes.
func (t *Tree) Visit(b geom.Box, whole func(*node), single func(geom.Point)) {
	if b.Dims() != t.dims {
		panic("kdtree: query dimensionality mismatch")
	}
	if b.Empty() {
		return
	}
	var rec func(*node)
	rec = func(nd *node) {
		switch boxRelation(b, nd.lo, nd.hi) {
		case 0:
			return
		case 2:
			whole(nd)
			return
		}
		if nd.pts != nil {
			for _, p := range nd.pts {
				if b.Contains(p) {
					single(p)
				}
			}
			return
		}
		rec(nd.left)
		rec(nd.right)
	}
	rec(t.root)
}

// Count returns |R(q)|.
func (t *Tree) Count(b geom.Box) int {
	total := 0
	t.Visit(b, func(nd *node) { total += nd.count }, func(geom.Point) { total++ })
	return total
}

// Report returns the points inside b.
func (t *Tree) Report(b geom.Box) []geom.Point {
	var out []geom.Point
	var emit func(*node)
	emit = func(nd *node) {
		if nd.pts != nil {
			out = append(out, nd.pts...)
			return
		}
		emit(nd.left)
		emit(nd.right)
	}
	t.Visit(b, emit, func(p geom.Point) { out = append(out, p) })
	return out
}
