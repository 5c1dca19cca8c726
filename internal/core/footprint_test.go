//go:build !race

package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cgm"
	"repro/internal/workload"
)

// TestBuiltTreeFootprint bounds the live heap a served tree keeps per
// point: BuildOn, then PrepareAssociativeNamed, over 16 384 clustered
// points on p = 4, fabric and resident loopback. With each element's
// points one columnar block that its layered tree keeps as its own,
// index arrays and aggregate tables on every other cascade level, and
// each table keeping every fourth prefix beside 8 B of f per point, both
// residencies read 109 B/point at d = 2 and 581–582 at d = 3. A prefix on
// every stored entry reads 136–137 / 833–834, and the same elements with
// both arrays on every level read 184–185 / 1 172–1 173.
// Elements that kept a []geom.Point beside their trees' cloned headers
// read 349 / 1 499 (fabric) and 452 / 1 730 (resident, whose headers
// also held the decode arenas), on every level. One header slice per
// element adds 96 / 192 B/point, and a resident loopback that keeps its
// last superstep's encoded blocks 39 / 78; the budgets fail all of these.
func TestBuiltTreeFootprint(t *testing.T) {
	const n, p = 1 << 14, 4
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, c := range []struct {
		d        int
		resident bool
		limit    int64
	}{{2, false, 125}, {2, true, 125}, {3, false, 670}, {3, true, 670}} {
		where := "fabric"
		if c.resident {
			where = "resident"
		}
		t.Run(fmt.Sprintf("d=%d/%s", c.d, where), func(t *testing.T) {
			pts := workload.Points(workload.PointSpec{N: n, Dims: c.d, Dist: workload.Clustered, Seed: 3})
			pv := cgm.NewLocalProvider(cgm.Config{P: p, Resident: c.resident})
			before := heap()
			dt, err := BuildOn(pv, pts, BackendLayered)
			if err != nil {
				t.Fatal(err)
			}
			agg := PrepareAssociativeNamed[float64](dt, benchWeightSum)
			per := (heap() - before) / n
			runtime.KeepAlive(dt)
			runtime.KeepAlive(agg)
			runtime.KeepAlive(pts)
			t.Logf("d=%d %s: %d B/point live after BuildOn + PrepareAssociativeNamed", c.d, where, per)
			if per > c.limit {
				t.Errorf("d=%d %s: the built tree keeps %d B/point, budget %d", c.d, where, per, c.limit)
			}
		})
	}
}
