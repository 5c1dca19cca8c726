package store

import (
	"slices"
	"sort"

	"repro/internal/geom"
)

// runs indexes the store's coordinator tier — the memtable, or the
// tombstone shadow — as immutable runs sorted by (X[0], ID): the
// logarithmic method the levels use, one tier down, with a sorted array
// in place of a tree. Each run is at least twice as long as the next, so
// n points sit in at most ⌊log₂ n⌋ + 1 runs, and a box costs one binary
// search per run plus the points of its X[0] slab.
//
// A runs value is copy-on-write: add returns a new list and never writes
// to a run or to a list a published Version holds.
type runs [][]geom.Point

// add adopts batch as a new run — sorting it in place, so the caller
// must not use it afterwards — and merges every run shorter than twice
// the result into it.
func (rs runs) add(batch []geom.Point) runs {
	if len(batch) == 0 {
		return rs
	}
	slices.SortFunc(batch, byX0)
	n := len(rs)
	for ; n > 0 && len(rs[n-1]) < 2*len(batch); n-- {
		batch = merge(rs[n-1], batch)
	}
	return append(rs[:n:n], batch)
}

// visit calls fn for every point of the runs inside b.
func (rs runs) visit(b geom.Box, fn func(geom.Point)) {
	for _, r := range rs {
		lo := sort.Search(len(r), func(k int) bool { return r[k].X[0] >= b.Lo[0] })
		hi := sort.Search(len(r), func(k int) bool { return r[k].X[0] > b.Hi[0] })
		for k := lo; k < hi; k++ {
			if b.ContainsFrom(r[k], 1) {
				fn(r[k])
			}
		}
	}
}

func byX0(a, b geom.Point) int { return geom.CmpInDim(a, b, 0) }

// merge returns the (X[0], ID) merge of two sorted runs in a new array.
func merge(a, b []geom.Point) []geom.Point {
	out := make([]geom.Point, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if byX0(a[0], b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}
