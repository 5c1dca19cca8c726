package store

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// mixedStore opens a store holding pts[:n] as one level and the next
// mem points in its memtable, with flushes and shadow folds out of reach
// so later deletes only grow the shadow.
func mixedStore(tb testing.TB, pts []geom.Point, n, mem int) *Store {
	tb.Helper()
	st, err := Open("", Config{Dims: 2, P: 4, MemtableCap: 1 << 20, ShadowFrac: 1, Sync: true})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.BulkLoad(core.SliceChunks(pts[:n], 0)); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.InsertBatch(pts[n : n+mem]); err != nil {
		tb.Fatal(err)
	}
	return st
}

// mixedBatch is one store-mixed read: 64 boxes of selectivity 0.002 in
// rank space 1..n, one report in four, the rest counts.
func mixedBatch(n int) ([]core.MixedOp, []geom.Box) {
	boxes := workload.Boxes(workload.QuerySpec{M: 64, Dims: 2, N: n, Selectivity: 0.002, Seed: 1})
	ops := make([]core.MixedOp, len(boxes))
	for i := 3; i < len(ops); i += 4 {
		ops[i] = core.OpReport
	}
	return ops, boxes
}

// BenchmarkVersionMixed times one store-mixed read batch against a
// 16 384-point level beside a memtable and a tombstone shadow of several
// sizes. With both indexed, ns/op stays nearly flat across shadow sizes.
func BenchmarkVersionMixed(b *testing.B) {
	const n, maxMem = 1 << 14, 1024
	pts := workload.Points(workload.PointSpec{N: n + maxMem, Dims: 2, Dist: workload.Clustered, Seed: 1})
	ops, boxes := mixedBatch(n + maxMem)
	for _, mem := range []int{0, maxMem} {
		st := mixedStore(b, pts, n, mem)
		deleted := 0
		for _, shadow := range []int{0, 1024, 4096} {
			if _, err := st.DeleteBatch(pts[deleted:shadow]); err != nil {
				b.Fatal(err)
			}
			deleted = shadow
			v := st.Pin()
			b.Run(fmt.Sprintf("mem=%d/shadow=%d", mem, shadow), func(b *testing.B) {
				for b.Loop() {
					if _, err := Mixed[struct{}](v, ops, boxes); err != nil {
						b.Fatal(err)
					}
				}
			})
			v.Release()
		}
		st.Close()
	}
}
