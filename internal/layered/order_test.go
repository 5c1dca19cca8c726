package layered

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// tiedPoints draws n points whose coordinates and IDs come from small
// sets that hold both int32 extremes: heavy coordinate ties, duplicate
// IDs, and equal (coordinate, ID) pairs on different points.
func tiedPoints(rng *rand.Rand, n, d int) []geom.Point {
	coords := []geom.Coord{math.MinInt32, math.MinInt32 + 1, -7, -1, 0, 1, 7, math.MaxInt32 - 1, math.MaxInt32}
	ids := []int32{math.MinInt32, -3, 0, 3, math.MaxInt32}
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for k := range x {
			x[k] = coords[rng.Intn(len(coords))]
		}
		id := ids[rng.Intn(len(ids))]
		if i%3 == 0 {
			id = int32(rng.Uint32()) // some IDs full-range
		}
		pts[i] = geom.Point{ID: id, X: x}
	}
	return pts
}

// stableBy is the oracle: indices, stably sorted under block.cmp in dim.
func stableBy(bl *block, idx []int32, dim int) []int32 {
	out := slices.Clone(idx)
	slices.SortStableFunc(out, func(i, j int32) int { return bl.cmp(i, j, dim) })
	return out
}

// TestPackedOrdersMatchStableSort: the orders construction packs into
// words — sortedBy's per-dimension order and the cascade's bottom runs —
// are exactly a stable sort under block.cmp, on points with heavy
// coordinate ties, duplicate IDs and int32-extreme coordinates and IDs,
// at sizes on both sides of the radix kernel's small-input cutoff.
func TestPackedOrdersMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 9, 100, 383, 384, 385, 3000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			pts := tiedPoints(rng, n, 2)
			lt := Build(pts)
			if lt.two == nil {
				t.Fatalf("a two-dimensional build has no cascade")
			}
			c := lt.two
			bl, m := c.blk, c.shape.M
			input := make([]int32, n)
			for i := range input {
				input[i] = int32(i)
			}
			scratch := make([]uint64, 2*n)
			for dim := 0; dim < 2; dim++ {
				if got, want := bl.sortedBy(dim, scratch), stableBy(bl, input, dim); !slices.Equal(got, want) {
					t.Fatalf("sortedBy(%d) = %v, a stable sort under cmp gives %v", dim, got, want)
				}
			}
			byX := stableBy(bl, input, 0)
			bottom := c.level(c.depth)
			for lo, w := 0, c.shape.Cap>>c.depth; lo < m; lo += w {
				hi := min(lo+w, m)
				if got, want := bottom[lo:hi], stableBy(bl, byX[lo:hi], 1); !slices.Equal(got, want) {
					t.Fatalf("bottom run [%d, %d) = %v, a stable sort under cmp gives %v", lo, hi, got, want)
				}
			}
		})
	}
}
