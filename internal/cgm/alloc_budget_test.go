//go:build !race

// Allocation counts say nothing about the product under the race
// detector, so the budget exists only in non-race builds.

package cgm

import "testing"

// TestBarrierRunAllocBudget pins the machine's own cost: a warm run of 8
// payload-free supersteps on p = 4 allocates nothing — no goroutine-start
// closures (Proc.start is bound once), no stamp strings, no row snapshots,
// no columns, no per-run vectors.
func TestBarrierRunAllocBudget(t *testing.T) {
	m := New(Config{P: 4})
	prog := func(pr *Proc) {
		for i := 0; i < 8; i++ {
			Barrier(pr, "spin")
		}
	}
	m.Run(prog) // warm the arenas and the round log
	if got := testing.AllocsPerRun(100, func() { m.Run(prog) }); got > 2 {
		t.Errorf("8 barriers on p=4: %.0f allocations per run, budget 2", got)
	} else {
		t.Logf("8 barriers on p=4: %.0f allocations per run", got)
	}
}
