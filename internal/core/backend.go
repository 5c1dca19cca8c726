package core

import (
	"repro/internal/cgm"
	"repro/internal/geom"
)

// Backend names the sequential structure forest elements are built on;
// BackendLayered is its only value (see BuildOn).
type Backend int8

// BackendLayered is the layered (fractionally cascaded) range tree,
// answering a j-dimensional subquery in O(log^(j-1) g + k) — a log factor
// below the plain tree, exactly the improvement the paper cites in §1 for
// the sequential structure. internal/rangetree keeps the plain structure
// of Definition 1 as the sequential baseline and test oracle.
const BackendLayered Backend = 0

// reportVisitor gathers a Visit descent into out, which the hook swaps
// per subquery (the result slice itself must persist past the call). out
// grows in the run's arena, its headers' X views into the element's
// block: a fabric run's local hits are copied into its pair rows before
// the run ends. A resident part gathers into a hitBlock instead.
type reportVisitor struct {
	a   *cgm.Arena
	out []geom.Point
}

func (r *reportVisitor) VisitRun(b *geom.Block, lo, hi int) {
	r.out = cgm.Grow(r.a, r.out, hi-lo)
	for i := lo; i < hi; i++ {
		r.out = append(r.out, b.Point(i))
	}
}
func (r *reportVisitor) VisitIndexed(b *geom.Block, idx []int32) {
	r.out = cgm.Grow(r.a, r.out, len(idx))
	for _, i := range idx {
		r.out = append(r.out, b.Point(int(i)))
	}
}
func (r *reportVisitor) VisitRow(b *geom.Block, i int32) {
	r.out = cgm.Append(r.a, r.out, b.Point(int(i)))
}

// elemReport reports b from el.
func elemReport(el *element, b geom.Box, rv *reportVisitor) []geom.Point {
	rv.out = nil
	el.tree.Visit(b, rv)
	out := rv.out
	rv.out = nil
	return out
}

// A hitBlock gathers a Visit descent into its ID and coordinate sections,
// building no point header; a run of a one-dimensional tree is two bulk
// copies.
func (h *hitBlock) VisitRun(b *geom.Block, lo, hi int) {
	h.IDs = append(h.IDs, b.IDs[lo:hi]...)
	h.Coords = append(h.Coords, b.Coords[lo*b.Dims:hi*b.Dims]...)
}
func (h *hitBlock) VisitIndexed(b *geom.Block, idx []int32) {
	for _, i := range idx {
		h.VisitRow(b, i)
	}
}
func (h *hitBlock) VisitRow(b *geom.Block, i int32) {
	at := int(i) * b.Dims
	h.IDs = append(h.IDs, b.IDs[i])
	h.Coords = append(h.Coords, b.Coords[at:at+b.Dims]...)
}

// elemHits appends the hits of b in el to blk and returns their number.
func elemHits(el *element, b geom.Box, blk *hitBlock) int {
	n := len(blk.IDs)
	el.tree.Visit(b, blk)
	return len(blk.IDs) - n
}
