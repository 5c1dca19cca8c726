package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// randomReportBlocks deals k pairs over p rank blocks at random cuts (so
// some ranks may be empty), each pair for one of the first m/2+1 queries
// in random order (so the rest have none), its ID drawn by id and its
// single coordinate its ordinal, which tells equal IDs apart.
func randomReportBlocks(rng *rand.Rand, p, m, k int, id func() int32) [][]ReportPair {
	pairs := make([]ReportPair, k)
	for i := range pairs {
		pairs[i] = ReportPair{Query: int32(rng.Intn(m/2 + 1)), Pt: geom.Point{ID: id(), X: []geom.Coord{geom.Coord(i)}}}
	}
	cuts := make([]int, p+1)
	for r := 1; r < p; r++ {
		cuts[r] = rng.Intn(k + 1)
	}
	cuts[p] = k
	slices.Sort(cuts)
	blocks := make([][]ReportPair, p)
	for r := range blocks {
		blocks[r] = pairs[cuts[r]:cuts[r+1]]
	}
	return blocks
}

// TestGroupReportsMatchesSortOracle feeds groupReports random rank blocks
// and checks every group, element for element, against a stable
// comparison sort of its query's pairs by ID: p from 1 to 7, empty ranks,
// queries without pairs, a single pair, and IDs that differ in one byte,
// over the full range, or crowd both int32 extremes.
func TestGroupReportsMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	draws := []struct {
		name string
		id   func() int32
	}{
		{"narrow", func() int32 { return -0x12340000 + int32(rng.Intn(200)) }},
		{"full", func() int32 { return int32(rng.Uint32()) }},
		{"extremes", func() int32 {
			if v := int32(rng.Intn(8)); rng.Intn(2) == 0 {
				return math.MinInt32 + v
			} else {
				return math.MaxInt32 - v
			}
		}},
	}
	for _, draw := range draws {
		for p := 1; p <= 7; p++ {
			rb := newReportBlocks(p) // kept across the trials, as a frame keeps it
			for _, k := range []int{1, 0, 2000, 7, 300} {
				m := 1 + rng.Intn(40)
				blocks := randomReportBlocks(rng, p, m, k, draw.id)
				want := make([][]geom.Point, m)
				for _, blk := range blocks {
					for _, pair := range blk {
						want[pair.Query] = append(want[pair.Query], pair.Pt)
					}
				}
				for _, pts := range want {
					slices.SortStableFunc(pts, func(a, b geom.Point) int { return cmp.Compare(a.ID, b.ID) })
				}

				copy(rb.perProc, blocks)
				results := make([]MixedResult[struct{}], m)
				groupReports(&rb, results)
				for r, blk := range blocks {
					if n := rb.starts[r+1] - rb.starts[r]; n != len(blk) {
						t.Fatalf("%s p=%d k=%d: rank %d counted %d pairs, holds %d", draw.name, p, k, r, n, len(blk))
					}
				}
				for q, r := range results {
					got := r.Pts
					if len(got) != len(want[q]) || cap(got) != len(got) {
						t.Fatalf("%s p=%d k=%d: query %d has %d points (cap %d), want %d", draw.name, p, k, q, len(got), cap(got), len(want[q]))
					}
					for j := range got {
						if got[j].ID != want[q][j].ID || got[j].X[0] != want[q][j].X[0] {
							t.Fatalf("%s p=%d k=%d: query %d point %d is (ID %d, pair %v), want (ID %d, pair %v)",
								draw.name, p, k, q, j, got[j].ID, got[j].X[0], want[q][j].ID, want[q][j].X[0])
						}
					}
				}
				for r, blk := range rb.perProc {
					if blk != nil {
						t.Fatalf("%s p=%d k=%d: rank %d's pair block outlived the grouping", draw.name, p, k, r)
					}
				}
			}
		}
	}
}
