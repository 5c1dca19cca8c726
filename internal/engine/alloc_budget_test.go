//go:build !race

// Allocation counts say nothing about the product under the race
// detector, so the budget exists only in non-race builds.

package engine

import (
	"testing"

	"repro/internal/workload"
)

// TestEngineAllocBudget pins the engine's own per-query allocations — the
// c of the serving stack's F/m + c: a cache hit builds its key once, and a
// dispatched query adds its reply channel and the machine run's fixed
// part — since the run frame is the tree's, its results and nothing else —
// with nothing per batch from the dispatcher's reused scratch.
func TestEngineAllocBudget(t *testing.T) {
	fx := newFixture(t, 1<<12, 4)
	box := workload.Boxes(workload.QuerySpec{M: 1, Dims: 2, N: fx.n, Selectivity: 0.01, Seed: 5})[0]

	cached := New(fx.tree, Config{BatchSize: 1})
	defer cached.Close()
	if _, err := cached.Count(box); err != nil { // fills the cache
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(200, func() { cached.Count(box) })
	t.Logf("cache hit: %.0f allocations per query", hit)
	if hit > 1 {
		t.Errorf("a cache hit allocates %.0f times, budget 1 (the key)", hit)
	}

	// No cache, one client: every query is its own machine run, so the
	// count is key + reply channel + the run's fixed allocations. This is
	// what a query costs at low load, where the dispatcher never batches.
	direct := New(fx.tree, Config{CacheSize: -1})
	defer direct.Close()
	for i := 0; i < 3; i++ {
		direct.Count(box)
	}
	miss := testing.AllocsPerRun(100, func() { direct.Count(box) })
	t.Logf("dispatched batch of one: %.0f allocations per query", miss)
	if miss > 8 {
		t.Errorf("a dispatched batch of one allocates %.0f times, budget 8", miss)
	}
}
