package core

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

// TestCrossBackendOracle drives mixed Count/Aggregate/Report batches
// through the unified pipeline on layered forest elements, over machine
// widths and d = 1..4, and checks each answer against
// the brute-force ground truth. (The plain range tree is compared with
// the layered tree and brute force element by element in
// internal/layered and internal/rangetree.)
func TestCrossBackendOracle(t *testing.T) {
	weight := func(p geom.Point) int64 { return int64(p.ID%5) + 1 }
	rng := rand.New(rand.NewSource(71))
	if _, err := BuildOn(cgm.NewLocalProvider(cgm.Config{P: 2}), randomPoints(rand.New(rand.NewSource(1)), 16, 2), Backend(1)); err == nil || !strings.Contains(err.Error(), "backend 1") {
		t.Fatalf("BuildOn accepted element backend 1, or refused it without naming it: %v", err)
	}
	for _, p := range []int{1, 4, 7} {
		for d := 1; d <= 4; d++ {
			n := 40 + rng.Intn(260)
			pts := randomPoints(rng, n, d)
			bf := brute.New(pts)
			boxes := randomBoxes(rng, 24, n, d)
			ops := make([]MixedOp, len(boxes))
			for i := range ops {
				ops[i] = MixedOp(i % 3) // count, aggregate, report
			}
			dt := Build(cgm.New(cgm.Config{P: p}), pts)
			if err := dt.Verify(); err != nil {
				t.Fatalf("p=%d d=%d: verify: %v", p, d, err)
			}
			h := PrepareAssociative(dt, semigroup.IntSum(), weight)
			// Two rounds: the second runs with warm copy caches and
			// must be indistinguishable.
			for round := 0; round < 2; round++ {
				results := MixedBatch(dt, h, ops, boxes)
				for i, b := range boxes {
					switch ops[i] {
					case OpCount:
						if want := int64(bf.Count(b)); results[i].Count != want {
							t.Fatalf("p=%d d=%d round=%d q%d: count %d want %d",
								p, d, round, i, results[i].Count, want)
						}
					case OpAggregate:
						if want := brute.Aggregate(bf, semigroup.IntSum(), weight, b); results[i].Agg != want {
							t.Fatalf("p=%d d=%d round=%d q%d: agg %d want %d",
								p, d, round, i, results[i].Agg, want)
						}
					case OpReport:
						if got, want := brute.IDs(results[i].Pts), brute.IDs(bf.Report(b)); !reflect.DeepEqual(got, want) {
							t.Fatalf("p=%d d=%d round=%d q%d: report %v want %v",
								p, d, round, i, got, want)
						}
					}
				}
			}
		}
	}
}

// skewedSetup builds a tree plus a query batch whose subqueries all
// congest a narrow strip of elements, forcing phase B to copy heavily —
// the workload the copy cache targets.
func skewedSetup(tb testing.TB, n, d, p, q int) (*Tree, []geom.Box) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, n, d)
	dt := Build(cgm.New(cgm.Config{P: p}), pts)
	boxes := make([]geom.Box, q)
	for i := range boxes {
		lo := make([]geom.Coord, d)
		hi := make([]geom.Coord, d)
		// A narrow strip in dimension 0 pinned to one hot region, partial
		// in the last dimension so the hat cannot resolve it (the query
		// must visit forest elements).
		lo[0] = geom.Coord(n/8 + rng.Intn(n/16))
		hi[0] = lo[0] + geom.Coord(n/16)
		for j := 1; j < d; j++ {
			lo[j] = geom.Coord(rng.Intn(n / 4))
			hi[j] = lo[j] + geom.Coord(n/2)
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return dt, boxes
}

// copyTotals sums the most recent batch's copy statistics over the
// processors: cache hits, points shipped by value and points references
// stood in for.
func copyTotals(dt *Tree) (hits, shipped, byRef int) {
	for _, st := range dt.LastSearchStats() {
		hits += st.CopyCacheHits
		shipped += st.CopiedPoints
		byRef += st.ByRefPoints
	}
	return hits, shipped, byRef
}

// TestCopyCacheWarmSkipsRebuild asserts the cross-batch cache contract:
// batch 1 installs copies cold and ships their points by value, and batch
// 2 reinstalls the same copies from the cache, every one by reference —
// the cold batch's volume is what the references stand in for.
func TestCopyCacheWarmSkipsRebuild(t *testing.T) {
	dt, boxes := skewedSetup(t, 2048, 2, 4, 96)

	want := dt.CountBatch(boxes)
	copies := 0
	for _, st := range dt.LastSearchStats() {
		copies += st.CopiesHeld
	}
	if copies == 0 {
		t.Fatal("skewed workload produced no copies; the cache test needs congestion")
	}
	hits, cold, byRef := copyTotals(dt)
	if hits != 0 || cold == 0 || byRef != 0 {
		t.Errorf("cold batch: %d cache hits, %d points shipped, %d by reference; want 0, >0, 0", hits, cold, byRef)
	}

	got := dt.CountBatch(boxes)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm batch changed answers")
	}
	hits, shipped, byRef := copyTotals(dt)
	if hits != copies {
		t.Errorf("warm batch hit cache %d times, want %d (all copies)", hits, copies)
	}
	if shipped != 0 || byRef != cold {
		t.Errorf("warm batch shipped %d points, %d by reference; want 0 and the cold volume %d", shipped, byRef, cold)
	}
}

// TestCopyCacheServesAggregates runs the associative mode over a skewed
// workload twice: the warm batch must reuse both the copied elements and
// their annotations, and still answer correctly. Then cap −1: the next
// batch still answers from what its hosts advertised, and leaves every
// rank's element and annotation caches, and the mirror, empty.
func TestCopyCacheServesAggregates(t *testing.T) {
	dt, boxes := skewedSetup(t, 1024, 2, 4, 64)
	weight := func(p geom.Point) int64 { return int64(p.ID%3) + 1 }
	h := PrepareAssociative(dt, semigroup.IntSum(), weight)
	want := h.Batch(boxes)
	got := h.Batch(boxes)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm aggregate batch changed answers")
	}
	if hits, _, _ := copyTotals(dt); hits == 0 {
		t.Error("warm aggregate batch installed no copies from the cache")
	}
	dt.SetCopyCacheCap(-1)
	if got := h.Batch(boxes); !reflect.DeepEqual(got, want) {
		t.Fatal("the batch that lowered the cap changed answers")
	}
	for rank, ps := range dt.procs {
		if n, m := ps.part.copyCache.len(), h.parts[rank].cache.len(); n != 0 || m != 0 || len(ps.cached) != 0 {
			t.Errorf("rank %d keeps %d cached copies, %d cached annotations, %d advertised after cap −1", rank, n, m, len(ps.cached))
		}
	}
}

// TestCopyCacheCapBoundsMemory asserts the cache bound: a cap of 1 keeps
// every processor's cache at one entry, a negative cap disables caching
// entirely, and answers never change either way. Each cap gets its own
// tree, set before its first batch.
func TestCopyCacheCapBoundsMemory(t *testing.T) {
	dt, boxes := skewedSetup(t, 2048, 2, 4, 96)
	want := dt.CountBatch(boxes)

	capped, _ := skewedSetup(t, 2048, 2, 4, 96)
	capped.SetCopyCacheCap(1)
	got := capped.CountBatch(boxes)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("capped cache changed answers")
	}
	for rank, ps := range capped.procs {
		if ps.part.copyCache.len() > 1 {
			t.Errorf("rank %d cache holds %d entries, cap is 1", rank, ps.part.copyCache.len())
		}
	}

	disabled, _ := skewedSetup(t, 2048, 2, 4, 96)
	disabled.SetCopyCacheCap(-1)
	disabled.CountBatch(boxes)
	got = disabled.CountBatch(boxes)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disabled cache changed answers")
	}
	if hits, _, _ := copyTotals(disabled); hits != 0 {
		t.Errorf("disabled cache still hit %d times", hits)
	}
	for rank, ps := range disabled.procs {
		if ps.part.copyCache.len() != 0 {
			t.Errorf("rank %d cache holds %d entries while disabled", rank, ps.part.copyCache.len())
		}
	}
}

// TestSingleQueryWorkConcurrentWithBatch exercises the reentrancy fix:
// SingleQueryWork descends over a local stack, so calling it from the
// caller's goroutine while a batch runs on the same tree is race-free.
func TestSingleQueryWorkConcurrentWithBatch(t *testing.T) {
	dt, boxes := skewedSetup(t, 1024, 2, 4, 64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = dt.SingleQueryWork(boxes[0])
			}
		}
	}()
	for i := 0; i < 5; i++ {
		dt.CountBatch(boxes)
	}
	close(done)
	wg.Wait()
}
