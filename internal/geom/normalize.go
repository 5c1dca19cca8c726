package geom

import (
	"fmt"
	"sort"
)

// Normalizer maps raw float64 coordinates into the distinct rank space
// 1..n the trees operate on, and maps raw query boxes into rank boxes. It
// implements the paper's normalization assumption (§3): every coordinate is
// replaced by its rank in increasing order, ties broken by point identity,
// so all ranks in a dimension are distinct.
type Normalizer struct {
	dims int
	// vals[j] holds the raw values of dimension j sorted increasingly;
	// vals[j][r-1] is the raw value of rank r.
	vals [][]float64
}

// NormalizeFloat64 converts raw points (rows of d raw coordinates) into rank
// points and returns the Normalizer that maps raw query boxes into the same
// rank space. Point IDs are assigned 0..n-1 in input order.
func NormalizeFloat64(raw [][]float64) ([]Point, *Normalizer) {
	n := len(raw)
	if n == 0 {
		return nil, &Normalizer{}
	}
	d := len(raw[0])
	for i, row := range raw {
		if len(row) != d {
			panic(fmt.Sprintf("geom: point %d has %d coordinates, want %d", i, len(row), d))
		}
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{ID: int32(i), X: make([]Coord, d)}
	}
	nm := &Normalizer{dims: d, vals: make([][]float64, d)}
	order := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range order {
			order[i] = i
		}
		// Sort by (value, point id) so equal raw values get distinct,
		// deterministic ranks.
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if raw[ia][j] != raw[ib][j] {
				return raw[ia][j] < raw[ib][j]
			}
			return ia < ib
		})
		vj := make([]float64, n)
		for r, i := range order {
			pts[i].X[j] = Coord(r + 1)
			vj[r] = raw[i][j]
		}
		nm.vals[j] = vj
	}
	return pts, nm
}

// Dims reports the dimensionality of the normalized space.
func (nm *Normalizer) Dims() int { return nm.dims }

// N reports the number of points the normalizer was built from.
func (nm *Normalizer) N() int {
	if nm.dims == 0 {
		return 0
	}
	return len(nm.vals[0])
}

// Box maps a raw closed box (lo[j] ≤ x_j ≤ hi[j] over raw values) to the
// equivalent rank-space box: exactly the points whose raw coordinates
// satisfy the raw box satisfy the rank box.
func (nm *Normalizer) Box(lo, hi []float64) Box {
	if len(lo) != nm.dims || len(hi) != nm.dims {
		panic(fmt.Sprintf("geom: query dimension %d/%d does not match normalizer dimension %d", len(lo), len(hi), nm.dims))
	}
	b := Box{Lo: make([]Coord, nm.dims), Hi: make([]Coord, nm.dims)}
	for j := 0; j < nm.dims; j++ {
		v := nm.vals[j]
		// Smallest rank whose raw value ≥ lo[j].
		lor := sort.SearchFloat64s(v, lo[j]) + 1
		// Largest rank whose raw value ≤ hi[j]: first index with value > hi.
		hir := sort.Search(len(v), func(i int) bool { return v[i] > hi[j] })
		b.Lo[j] = Coord(lor)
		b.Hi[j] = Coord(hir)
	}
	return b
}

// RankPoints builds rank-space points directly from integer coordinate rows
// without keeping a normalizer; duplicates are allowed (callers that need
// the paper's distinct-rank precondition should use NormalizeFloat64 or
// RankNormalize). IDs are assigned in input order.
func RankPoints(rows [][]Coord) []Point {
	pts := make([]Point, len(rows))
	for i, row := range rows {
		x := make([]Coord, len(row))
		copy(x, row)
		pts[i] = Point{ID: int32(i), X: x}
	}
	return pts
}

// RankNormalize rewrites the coordinates of pts in place so that every
// dimension holds the distinct ranks 1..n (ties broken by point ID), and
// returns pts. It is the integer-input counterpart of NormalizeFloat64.
func RankNormalize(pts []Point) []Point {
	n := len(pts)
	if n == 0 {
		return pts
	}
	d := pts[0].Dims()
	order := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if pts[ia].X[j] != pts[ib].X[j] {
				return pts[ia].X[j] < pts[ib].X[j]
			}
			return pts[ia].ID < pts[ib].ID
		})
		for r, i := range order {
			pts[i].X[j] = Coord(r + 1)
		}
	}
	return pts
}
