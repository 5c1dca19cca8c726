//go:build !race

package core

import (
	"math/rand"
	"testing"
)

// TestGroupReportsAllocBudget pins what the report epilogue allocates once
// its scratch is sized: one exact-size group per report query with pairs,
// and nothing else — the sort words, the radix passes and the per-query
// counts reuse the frame's report blocks.
func TestGroupReportsAllocBudget(t *testing.T) {
	const p, m, k = 4, 96, 4000
	rng := rand.New(rand.NewSource(3))
	blocks := randomReportBlocks(rng, p, m, k, func() int32 { return int32(rng.Uint32()) })
	withPairs := make(map[int32]bool)
	for _, blk := range blocks {
		for _, pair := range blk {
			withPairs[pair.Query] = true
		}
	}
	rb := newReportBlocks(p)
	results := make([]MixedResult[struct{}], m)
	group := func() {
		copy(rb.perProc, blocks)
		groupReports(&rb, results)
	}
	group() // size the scratch
	got := testing.AllocsPerRun(20, group)
	t.Logf("%d pairs over %d report queries: %.0f allocations per grouping", k, len(withPairs), got)
	if got != float64(len(withPairs)) {
		t.Errorf("a warm grouping allocated %.0f times, want %d (one group per report query with pairs)", got, len(withPairs))
	}
}
