package core

import (
	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/layered"
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

// countVisitor tallies a Visit descent; the serving hooks hold one and
// reset total between subqueries, so counting stays allocation-free.
type countVisitor struct{ total int }

func (c *countVisitor) VisitRange(pts []geom.Point)              { c.total += len(pts) }
func (c *countVisitor) VisitIndexed(_ []geom.Point, idx []int32) { c.total += len(idx) }
func (c *countVisitor) VisitPoint(geom.Point)                    { c.total++ }

// reportVisitor gathers a Visit descent into out, which the hook swaps
// per subquery (the result slice itself must persist past the call). out
// grows in the run's arena: a fabric run's local hits are copied into its
// pair rows before the run ends. A resident part gathers into a hitBlock
// instead.
type reportVisitor struct {
	a   *cgm.Arena
	out []geom.Point
}

func (r *reportVisitor) VisitRange(pts []geom.Point) { r.out = cgm.Append(r.a, r.out, pts...) }
func (r *reportVisitor) VisitIndexed(b []geom.Point, i []int32) {
	r.out = layered.Gather(cgm.Grow(r.a, r.out, len(i)), b, i)
}
func (r *reportVisitor) VisitPoint(p geom.Point) { r.out = cgm.Append(r.a, r.out, p) }

// elemCount counts b in el.
func elemCount(el *element, b geom.Box, cv *countVisitor) int {
	cv.total = 0
	el.tree.Visit(b, cv)
	return cv.total
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
// building no point header.
func (h *hitBlock) VisitRange(pts []geom.Point) {
	for _, p := range pts {
		h.add(p)
	}
}
func (h *hitBlock) VisitIndexed(b []geom.Point, idx []int32) {
	for _, i := range idx {
		h.add(b[i])
	}
}
func (h *hitBlock) VisitPoint(p geom.Point) { h.add(p) }

func (h *hitBlock) add(p geom.Point) {
	h.IDs = append(h.IDs, p.ID)
	h.X = append(h.X, p.X...)
}

// elemHits appends the hits of b in el to blk and returns their number.
func elemHits(el *element, b geom.Box, blk *hitBlock) int {
	n := len(blk.IDs)
	el.tree.Visit(b, blk)
	return len(blk.IDs) - n
}
