package core

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/rangetree"
	"repro/internal/semigroup"
)

// Backend selects the sequential structure forest elements (and copies of
// them) are built on. The distributed algorithms above the element layer
// are backend-agnostic: anything that can build, count, report and carry a
// semigroup annotation over a point set serves phase C.
type Backend int8

const (
	// BackendLayered is the default: the layered (fractionally cascaded)
	// range tree, answering a j-dimensional subquery in O(log^(j-1) g + k)
	// — a log factor below the plain tree, exactly the improvement the
	// paper cites in §1 for the sequential structure.
	BackendLayered Backend = iota
	// BackendRangeTree is the paper's plain structure (Definition 1), kept
	// as the reference backend and the baseline of the E15 measurements.
	BackendRangeTree
)

// String names the backend (diagnostics and benchmark labels).
func (b Backend) String() string {
	switch b {
	case BackendLayered:
		return "layered"
	case BackendRangeTree:
		return "rangetree"
	}
	return fmt.Sprintf("Backend(%d)", int8(b))
}

// elemTree is the per-element contract of phase C: build once (via
// buildElemTree), then answer counting and reporting subqueries. Nodes
// feeds the Theorem 1 space accounting.
type elemTree interface {
	N() int
	Nodes() int
	Count(b geom.Box) int
	Report(b geom.Box) []geom.Point
}

// visitable is the zero-allocation fast path: backends exposing the
// layered Visitor API let the serving hooks reuse one visitor across all
// subqueries of a batch instead of allocating per call.
type visitable interface {
	Visit(b geom.Box, v layered.Visitor)
}

// buildElemTree constructs one forest element's sequential structure over
// dimensions startDim..d-1 of pts.
func buildElemTree(be Backend, pts []geom.Point, startDim int) elemTree {
	switch be {
	case BackendRangeTree:
		return rangetree.BuildFrom(pts, startDim)
	default:
		return layered.BuildFrom(pts, startDim)
	}
}

// elemAgg is a prepared per-element semigroup annotation (Algorithm
// AssociativeFunction step 1 at element granularity).
type elemAgg[T any] interface {
	Query(b geom.Box) T
}

// newElemAgg builds the annotation matching the element's backend.
func newElemAgg[T any](el *element, m semigroup.Monoid[T], val func(geom.Point) T) elemAgg[T] {
	if tr, ok := el.tree.(*rangetree.Tree); ok {
		return rangetree.NewAgg(tr, m, val)
	}
	return layered.NewAgg(el.tree.(*layered.Tree), m, val)
}

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

// elemCount counts s.Box in el through the fastest available path.
func elemCount(el *element, b geom.Box, cv *countVisitor) int {
	if vt, ok := el.tree.(visitable); ok {
		cv.total = 0
		vt.Visit(b, cv)
		return cv.total
	}
	return el.tree.Count(b)
}

// elemReport reports b from el through the fastest available path.
func elemReport(el *element, b geom.Box, rv *reportVisitor) []geom.Point {
	if vt, ok := el.tree.(visitable); ok {
		rv.out = nil
		vt.Visit(b, rv)
		out := rv.out
		rv.out = nil
		return out
	}
	return el.tree.Report(b)
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
	if vt, ok := el.tree.(visitable); ok {
		vt.Visit(b, blk)
	} else {
		blk.VisitRange(el.tree.Report(b))
	}
	return len(blk.IDs) - n
}
