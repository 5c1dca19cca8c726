//go:build !race

package store

import (
	"testing"

	"repro/internal/workload"
)

// TestMixedAllocBudget pins that a read's allocations do not grow with
// the tombstone shadow: the same 64-box count+report batch against one
// level and memtable, without and with 4 096 tombstones, must allocate
// the same to within a small constant. (Dropping a box's tombstoned IDs
// from its report is an in-place merge with the box's own tombstone
// hits, not a set of the whole shadow.)
func TestMixedAllocBudget(t *testing.T) {
	const n, mem, shadow = 1 << 14, 1024, 4096
	pts := workload.Points(workload.PointSpec{N: n + mem, Dims: 2, Dist: workload.Clustered, Seed: 1})
	ops, boxes := mixedBatch(n + mem)
	st := mixedStore(t, pts, n, mem)
	defer st.Close()
	clean := st.Pin()
	defer clean.Release()
	if _, err := st.DeleteBatch(pts[:shadow]); err != nil {
		t.Fatal(err)
	}
	shadowed := st.Pin()
	defer shadowed.Release()
	if got := st.Stats().Shadow; got != shadow {
		t.Fatalf("shadow holds %d tombstones, want %d", got, shadow)
	}

	allocs := func(v *Version) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Mixed[struct{}](v, ops, boxes); err != nil {
				t.Fatal(err)
			}
		})
	}
	without, with := allocs(clean), allocs(shadowed)
	t.Logf("64-box read: %.0f allocations without tombstones, %.0f with %d", without, with, shadow)
	if with > without+2 {
		t.Fatalf("%d tombstones cost a read %.0f extra allocations (budget 2)", shadow, with-without)
	}
}
