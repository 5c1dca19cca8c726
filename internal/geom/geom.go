// Package geom provides the geometric primitives shared by every module of
// the range-search library: points in d-dimensional rank space, axis-aligned
// query boxes, and the rank normalization step the paper assumes
// ("all coordinates in each dimension are normalized by replacing each of
// them by their rank in increasing order", §3).
package geom

import "fmt"

// Coord is a single coordinate in rank space. The paper normalizes every
// coordinate to its rank in 1..n, so 32 bits are always enough.
type Coord = int32

// Point is a point of the input set L. ID is the point's stable identity
// (its position in the original input); X holds one rank coordinate per
// dimension.
type Point struct {
	ID int32
	X  []Coord
}

// Dims reports the dimensionality of the point.
func (p Point) Dims() int { return len(p.X) }

// Clone returns a deep copy of the point.
func (p Point) Clone() Point {
	x := make([]Coord, len(p.X))
	copy(x, p.X)
	return Point{ID: p.ID, X: x}
}

func (p Point) String() string { return fmt.Sprintf("p%d%v", p.ID, p.X) }

// Block is a point set of one dimensionality in columns: point i is
// IDs[i] at Coords[i·Dims:(i+1)·Dims]. It holds no pointer per point, so
// a block of any size is two allocations and nothing for the collector to
// trace.
type Block struct {
	Dims   int
	IDs    []int32
	Coords []Coord
}

// BlockOf copies pts, all of dims coordinates, into a new block.
func BlockOf(pts []Point, dims int) Block {
	b := Block{Dims: dims, IDs: make([]int32, len(pts)), Coords: make([]Coord, 0, len(pts)*dims)}
	for i, p := range pts {
		b.IDs[i] = p.ID
		b.Coords = append(b.Coords, p.X...)
	}
	return b
}

// Len reports the number of points.
func (b Block) Len() int { return len(b.IDs) }

// Point is a read-only view of point i: its X shares the block's
// coordinates (capacity-clipped), so the call allocates nothing.
func (b Block) Point(i int) Point {
	at := i * b.Dims
	return Point{ID: b.IDs[i], X: b.Coords[at : at+b.Dims : at+b.Dims]}
}

// Box is a closed axis-aligned query domain q ⊆ E^d: Lo[i] ≤ x_i ≤ Hi[i]
// for every dimension i. A box with Lo[i] > Hi[i] in any dimension is empty.
type Box struct {
	Lo, Hi []Coord
}

// NewBox builds a box from per-dimension bounds; it panics if the slices
// disagree in length.
func NewBox(lo, hi []Coord) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: box bounds disagree in dimension: %d vs %d", len(lo), len(hi)))
	}
	return Box{Lo: lo, Hi: hi}
}

// Dims reports the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// Empty reports whether the box contains no point of rank space.
func (b Box) Empty() bool {
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return true
		}
	}
	return false
}

// Contains reports whether point p lies in the box. It panics if
// dimensionalities disagree.
func (b Box) Contains(p Point) bool {
	if len(p.X) != len(b.Lo) {
		panic(fmt.Sprintf("geom: point dimension %d does not match box dimension %d", len(p.X), len(b.Lo)))
	}
	for i, x := range p.X {
		if x < b.Lo[i] || x > b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsFrom reports whether p satisfies the box constraints for
// dimensions dim..d-1 only (0-based). Search algorithms use it when the
// first dim dimensions have already been resolved structurally.
func (b Box) ContainsFrom(p Point, dim int) bool {
	for i := dim; i < len(b.Lo); i++ {
		if p.X[i] < b.Lo[i] || p.X[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	lo := make([]Coord, len(b.Lo))
	hi := make([]Coord, len(b.Hi))
	copy(lo, b.Lo)
	copy(hi, b.Hi)
	return Box{Lo: lo, Hi: hi}
}

func (b Box) String() string { return fmt.Sprintf("[%v..%v]", b.Lo, b.Hi) }

// Interval is a closed 1-dimensional coordinate interval.
type Interval struct {
	Lo, Hi Coord
}

// Empty reports whether the interval contains no coordinate.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether c lies in the interval.
func (iv Interval) Contains(c Coord) bool { return iv.Lo <= c && c <= iv.Hi }

// ContainsInterval reports whether other ⊆ iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Overlaps reports whether the two intervals share at least one coordinate.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Dim extracts the query interval of box b in dimension dim (0-based).
func (b Box) Dim(dim int) Interval { return Interval{Lo: b.Lo[dim], Hi: b.Hi[dim]} }

// CmpInDim orders points by (X[dim], ID) — a total order even with
// duplicate coordinates. Every structure that sorts points per dimension
// and later splits or merges the presorted orders (the range tree's and
// layered tree's constructions) must agree on this order, so it lives
// here once.
func CmpInDim(a, b Point, dim int) int {
	if a.X[dim] != b.X[dim] {
		if a.X[dim] < b.X[dim] {
			return -1
		}
		return 1
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// LessInDim is CmpInDim as a strict order (partition/merge predicate).
func LessInDim(a, b Point, dim int) bool { return CmpInDim(a, b, dim) < 0 }
