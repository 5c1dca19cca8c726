// Streaming example: the dynamic distributed range tree (the paper's
// "inherently static" limitation lifted with the logarithmic method) —
// an ephemeral mutable store in Sync mode. Batches of events arrive
// continuously; queries interleave with inserts and deletions, and the
// example prints how the level structure and the amortized rebuild mass
// evolve.
package main

import (
	"fmt"
	"math/rand"

	"repro"
)

func main() {
	const p, base = 4, 64
	// Sync runs every flush and shadow fold inside the mutation that
	// trips it, so the printed level structure is deterministic.
	st, err := drtree.OpenStore("", drtree.StoreConfig{Dims: 2, P: p, Sync: true, MemtableCap: base})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(17))

	nextID := int32(0)
	makeBatch := func(size int) []drtree.Point {
		pts := make([]drtree.Point, size)
		for i := range pts {
			pts[i] = drtree.Point{
				ID: nextID,
				X:  []drtree.Coord{drtree.Coord(rng.Intn(10000)), drtree.Coord(rng.Intn(10000))},
			}
			nextID++
		}
		return pts
	}
	region := drtree.NewBox([]drtree.Coord{2000, 2000}, []drtree.Coord{6000, 6000})
	count := func() int64 {
		c, err := st.CountBatch([]drtree.Box{region})
		if err != nil {
			panic(err)
		}
		return c[0]
	}

	fmt.Printf("%8s %7s %7s %7s %14s %14s\n", "batch", "live n", "levels", "folds", "rebuilds/pt", "region count")
	var retained [][]drtree.Point
	for batch := 1; batch <= 8; batch++ {
		pts := makeBatch(8 * base)
		retained = append(retained, pts)
		// Memtable-sized inserts: each one is a binary-counter carry.
		for off := 0; off < len(pts); off += base {
			if _, err := st.InsertBatch(pts[off : off+base]); err != nil {
				panic(err)
			}
		}
		if batch%3 == 0 {
			// Expire the oldest batch (sliding window): a third of the
			// live set, past the quarter at which the store folds its
			// tombstones away on its own.
			if _, err := st.DeleteBatch(retained[0]); err != nil {
				panic(err)
			}
			retained = retained[1:]
		}
		ss := st.Stats()
		fmt.Printf("%8d %7d %7d %7d %14.2f %14d\n",
			batch, ss.Live, ss.Levels, ss.Compactions,
			float64(ss.BuiltPoints)/float64(nextID), count())
	}

	// Verify against a scan of the retained window.
	want := int64(0)
	for _, pts := range retained {
		for _, pt := range pts {
			if region.Contains(pt) {
				want++
			}
		}
	}
	ss := st.Stats()
	got := count()
	fmt.Printf("\n%d levels after %d shadow folds: count %d, scan %d (must match)\n", ss.Levels, ss.Compactions, got, want)
	if got != want {
		panic("store disagrees with a scan of the retained window")
	}
}
