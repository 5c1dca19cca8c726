// Package dominance implements the special case the paper's footnote 2
// points out: "in the special case of associative functions with inverses
// this problem can be solved using weighted dominance counting". For a
// commutative *group* (a monoid with an Inverse), the aggregate over a box
// decomposes by inclusion–exclusion into 2^d dominance (prefix)
// aggregates, each answerable by a prefix-specialized structure whose
// final dimension is a single binary search over prefix folds instead of
// a canonical decomposition.
package dominance

import (
	"errors"
	"sort"

	"repro/internal/geom"
	"repro/internal/segtree"
	"repro/internal/semigroup"
)

// Tree answers weighted dominance queries: the group fold over all points
// p with p.X[j] ≤ c[j] in every dimension j.
type Tree[T any] struct {
	dims     int
	startDim int
	g        semigroup.Monoid[T]

	// Upper dimensions: a segment tree over startDim with descendant
	// prefix trees (single-point nodes resolved via pts/vals directly).
	shape segtree.Shape
	pts   []geom.Point
	vals  []T
	desc  []*Tree[T]

	// Final dimension: sorted coordinates with prefix folds
	// (prefix[i] = fold of the first i values).
	coords []geom.Coord
	prefix []T
}

// New builds the structure over all dimensions of pts with per-point
// value val. g must be a group: a monoid without an Inverse cannot cancel
// the over-counted orthants of Box, and is an error, as is an empty pts.
func New[T any](pts []geom.Point, g semigroup.Monoid[T], val func(geom.Point) T) (*Tree[T], error) {
	if g.Inverse == nil {
		return nil, errors.New("dominance: the monoid has no Inverse")
	}
	if len(pts) == 0 {
		return nil, errors.New("dominance: empty point set")
	}
	return build(pts, g, val, 0, pts[0].Dims()), nil
}

func build[T any](pts []geom.Point, g semigroup.Monoid[T], val func(geom.Point) T, startDim, dims int) *Tree[T] {
	t := &Tree[T]{dims: dims, startDim: startDim, g: g}
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].X[startDim] != sorted[b].X[startDim] {
			return sorted[a].X[startDim] < sorted[b].X[startDim]
		}
		return sorted[a].ID < sorted[b].ID
	})
	if startDim == dims-1 {
		t.coords = make([]geom.Coord, len(sorted))
		t.prefix = make([]T, len(sorted)+1)
		t.prefix[0] = g.Identity
		for i, p := range sorted {
			t.coords[i] = p.X[startDim]
			t.prefix[i+1] = g.Combine(t.prefix[i], val(p))
		}
		return t
	}
	t.pts = sorted
	t.vals = make([]T, len(sorted))
	for i, p := range sorted {
		t.vals[i] = val(p)
	}
	t.shape = segtree.NewShape(len(sorted))
	t.desc = make([]*Tree[T], t.shape.NumNodes()+1)
	var fill func(v int, sub []geom.Point)
	fill = func(v int, sub []geom.Point) {
		if len(sub) < 2 {
			return
		}
		t.desc[v] = build(sub, g, val, startDim+1, dims)
		lo, _ := t.shape.PosRange(v)
		mid := lo + (t.shape.Cap >> (segtree.Depth(v) + 1))
		if mid >= lo+len(sub) {
			fill(segtree.Left(v), sub)
			return
		}
		fill(segtree.Left(v), sub[:mid-lo])
		fill(segtree.Right(v), sub[mid-lo:])
	}
	fill(t.shape.Root(), sorted)
	return t
}

// dominated folds val over every point dominated by c (p.X[j] ≤ c[j] for
// all j ≥ the tree's first dimension).
func (t *Tree[T]) dominated(c []geom.Coord) T {
	bound := c[t.startDim]
	if t.prefix != nil { // final dimension: one binary search
		hi := sort.Search(len(t.coords), func(i int) bool { return t.coords[i] > bound })
		return t.prefix[hi]
	}
	// Prefix canonical cover of positions [0, hi).
	hi := sort.Search(len(t.pts), func(i int) bool { return t.pts[i].X[t.startDim] > bound })
	acc := t.g.Identity
	t.shape.Cover(0, hi, func(v int) {
		plo, phi := t.shape.PosRange(v)
		if phi > t.shape.M {
			phi = t.shape.M
		}
		if phi-plo == 1 {
			p := t.pts[plo]
			ok := true
			for j := t.startDim + 1; j < t.dims; j++ {
				if p.X[j] > c[j] {
					ok = false
					break
				}
			}
			if ok {
				acc = t.g.Combine(acc, t.vals[plo])
			}
			return
		}
		acc = t.g.Combine(acc, t.desc[v].dominated(c))
	})
	return acc
}

// Box evaluates the group fold over a box by inclusion–exclusion over the
// 2^d dominance corners (footnote 2's reduction). Inverse elements cancel
// the over-counted orthants.
func (t *Tree[T]) Box(b geom.Box) T {
	if b.Dims() != t.dims {
		panic("dominance: query dimensionality mismatch")
	}
	if b.Empty() {
		// Inclusion–exclusion assumes lo ≤ hi per dimension; an empty box
		// is the identity by definition.
		return t.g.Identity
	}
	d := t.dims
	acc := t.g.Identity
	corner := make([]geom.Coord, d)
	for mask := 0; mask < 1<<d; mask++ {
		bits := 0
		for j := 0; j < d; j++ {
			if mask&(1<<j) != 0 {
				corner[j] = b.Lo[j] - 1
				bits++
			} else {
				corner[j] = b.Hi[j]
			}
		}
		term := t.dominated(corner)
		if bits%2 == 1 {
			term = t.g.Inverse(term)
		}
		acc = t.g.Combine(acc, term)
	}
	return acc
}
