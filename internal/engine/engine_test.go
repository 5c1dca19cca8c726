package engine

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// testFixture builds one tree + oracle shared by the tests.
type testFixture struct {
	tree *core.Tree
	agg  *core.AggHandle[float64]
	bf   *brute.Set
	n    int
}

func newFixture(t testing.TB, n, p int) *testFixture {
	t.Helper()
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 11})
	mach := cgm.New(cgm.Config{P: p})
	tree := core.Build(mach, pts)
	return &testFixture{
		tree: tree,
		agg:  core.PrepareAssociative(tree, semigroup.FloatSum(), workload.WeightOf),
		bf:   brute.New(pts),
		n:    n,
	}
}

// TestEngineConcurrentMixedMatchesBrute hammers one engine from many
// goroutines across all three modes and checks every answer against the
// brute-force oracle. Run under -race this is the serving layer's main
// correctness guarantee.
func TestEngineConcurrentMixedMatchesBrute(t *testing.T) {
	fx := newFixture(t, 1<<11, 4)
	eng := WithAggregate(fx.tree, fx.agg, Config{
		BatchSize: 48,
		CacheSize: 128,
	})
	defer eng.Close()

	const submitters = 10
	const perSubmitter = 64
	boxes := workload.Boxes(workload.QuerySpec{
		M: submitters * perSubmitter, Dims: 2, N: fx.n, Selectivity: 0.01, Seed: 21,
	})

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perSubmitter; i++ {
				// Revisit earlier boxes sometimes so the cache sees traffic.
				qi := g*perSubmitter + i
				if rng.Intn(4) == 0 {
					qi = rng.Intn(len(boxes))
				}
				q := boxes[qi]
				switch (g + i) % 3 {
				case 0:
					got, err := eng.Count(q)
					if err != nil {
						fail("goroutine %d: Count: %v", g, err)
						return
					}
					if want := int64(fx.bf.Count(q)); got != want {
						fail("goroutine %d query %d: count %d, want %d", g, i, got, want)
					}
				case 1:
					got, err := eng.Aggregate(q)
					if err != nil {
						fail("goroutine %d: Aggregate: %v", g, err)
						return
					}
					want := brute.Aggregate(fx.bf, semigroup.FloatSum(), workload.WeightOf, q)
					if d := got - want; d > 1e-6 || d < -1e-6 {
						fail("goroutine %d query %d: agg %v, want %v", g, i, got, want)
					}
				default:
					got, err := eng.Report(q)
					if err != nil {
						fail("goroutine %d: Report: %v", g, err)
						return
					}
					gotIDs, wantIDs := brute.IDs(got), brute.IDs(fx.bf.Report(q))
					if len(gotIDs) != len(wantIDs) {
						fail("goroutine %d query %d: %d points, want %d", g, i, len(gotIDs), len(wantIDs))
						continue
					}
					for j := range gotIDs {
						if gotIDs[j] != wantIDs[j] {
							fail("goroutine %d query %d: point %d is %d, want %d", g, i, j, gotIDs[j], wantIDs[j])
							break
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := eng.Stats()
	if st.Submitted != submitters*perSubmitter {
		t.Errorf("Submitted = %d, want %d", st.Submitted, submitters*perSubmitter)
	}
	if st.Batches == 0 {
		t.Error("no batches dispatched")
	}
	if st.CacheHits+st.CacheMisses != st.Submitted {
		t.Errorf("hits %d + misses %d != submitted %d", st.CacheHits, st.CacheMisses, st.Submitted)
	}
	if st.BatchedQueries != st.CacheMisses {
		t.Errorf("BatchedQueries = %d, want %d (one dispatch per miss)", st.BatchedQueries, st.CacheMisses)
	}
	t.Logf("stats: %+v", st)
}

// TestEngineCacheHit verifies the LRU short-circuits a repeated query and
// that hits are counted per (mode, box): the same box in another mode must
// miss.
func TestEngineCacheHit(t *testing.T) {
	fx := newFixture(t, 512, 2)
	eng := New(fx.tree, Config{BatchSize: 4, CacheSize: 16})
	defer eng.Close()

	q := workload.Boxes(workload.QuerySpec{M: 1, Dims: 2, N: fx.n, Selectivity: 0.05, Seed: 8})[0]
	first, err := eng.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cached answer %d differs from first %d", second, first)
	}
	if st := eng.Stats(); st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1 (stats %+v)", st.CacheHits, st)
	}
	if _, err := eng.Report(q); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.CacheHits != 1 {
		t.Fatalf("Report of the same box must miss; stats %+v", st)
	}
}

// TestCacheKeyCarriesVersion: the key built once at submit is the cache
// key (version first) and, past the version, the in-batch dedup key.
func TestCacheKeyCarriesVersion(t *testing.T) {
	q := workload.Boxes(workload.QuerySpec{M: 1, Dims: 3, N: 1 << 20, Selectivity: 0.05, Seed: 4})[0]
	old := string(appendCacheKey(nil, 7, core.OpReport, q))
	cur := string(appendCacheKey(nil, 1<<40+9, core.OpReport, q))
	if got := binary.LittleEndian.Uint64([]byte(cur[:8])); got != 1<<40+9 {
		t.Fatalf("the key's first 8 bytes read back as version %d", got)
	}
	if old == cur || old[8:] != cur[8:] {
		t.Fatalf("keys of one query at two versions must differ only in the version prefix")
	}
	if other := string(appendCacheKey(nil, 7, core.OpCount, q)); other[8:] == old[8:] {
		t.Fatalf("a count and a report of one box share a dedup key")
	}
}

// TestEngineReportNoAliasing verifies callers may mutate a Report answer
// without corrupting the cache or other callers' copies.
func TestEngineReportNoAliasing(t *testing.T) {
	fx := newFixture(t, 512, 2)
	eng := New(fx.tree, Config{BatchSize: 4, CacheSize: 16})
	defer eng.Close()

	q := workload.Boxes(workload.QuerySpec{M: 1, Dims: 2, N: fx.n, Selectivity: 0.2, Seed: 13})[0]
	first, err := eng.Report(q)
	if err != nil || len(first) < 2 {
		t.Fatalf("Report: %v (got %d points, need ≥2)", err, len(first))
	}
	first[0], first[1] = first[1], first[0] // caller scrambles its copy
	second, err := eng.Report(q)            // cache hit
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(second); i++ {
		if second[i-1].ID > second[i].ID {
			t.Fatalf("cached report answer was corrupted by a caller's in-place mutation")
		}
	}
}

// TestEngineReportInIDOrder pins Report's contract — the points of the
// box in ascending ID — on a tree whose IDs are drawn over the whole int32
// range (about half negative) in no relation to the points, with both
// int32 extremes at the corners of the space.
func TestEngineReportInIDOrder(t *testing.T) {
	const n = 1024
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 12})
	rng := rand.New(rand.NewSource(12))
	seen := map[int32]bool{}
	for i := range pts {
		id := int32(rng.Uint32())
		for seen[id] {
			id = int32(rng.Uint32())
		}
		seen[id] = true
		pts[i].ID = id
	}
	pts[0].ID, pts[0].X = math.MinInt32, []geom.Coord{0, 0}
	pts[1].ID, pts[1].X = math.MaxInt32, []geom.Coord{n, n}
	bf := brute.New(pts)
	eng := New(core.Build(cgm.New(cgm.Config{P: 4}), pts), Config{BatchSize: 8, CacheSize: 16})
	defer eng.Close()

	boxes := workload.Boxes(workload.QuerySpec{M: 24, Dims: 2, N: n, Selectivity: 0.05, Seed: 12})
	boxes = append(boxes, geom.NewBox([]geom.Coord{0, 0}, []geom.Coord{n, n}))
	for i, box := range boxes {
		got, err := eng.Report(box)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(got, func(a, b geom.Point) int { return cmp.Compare(a.ID, b.ID) }) {
			t.Fatalf("box %d: the %d reported points are not in ID order", i, len(got))
		}
		if ids, want := brute.IDs(got), brute.IDs(bf.Report(box)); !slices.Equal(ids, want) {
			t.Fatalf("box %d: reported IDs %v, want %v", i, ids, want)
		}
	}
	if all, _ := eng.Report(boxes[len(boxes)-1]); len(all) != n || all[0].ID != math.MinInt32 || all[n-1].ID != math.MaxInt32 {
		t.Fatalf("the box around every point reported %d of %d points, not from MinInt32 to MaxInt32", len(all), n)
	}
}

// TestEngineLifecycle covers Close semantics and the no-handle error.
func TestEngineLifecycle(t *testing.T) {
	fx := newFixture(t, 256, 2)
	eng := New(fx.tree, Config{BatchSize: 8})
	q := workload.Boxes(workload.QuerySpec{M: 1, Dims: 2, N: fx.n, Selectivity: 0.1, Seed: 5})[0]

	if _, err := eng.Aggregate(q); err != ErrNoAggregate {
		t.Fatalf("Aggregate without handle: err = %v, want ErrNoAggregate", err)
	}
	if _, err := eng.Count(q); err != nil {
		t.Fatalf("Count before close: %v", err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Count(q); err != ErrClosed {
		t.Fatalf("Count after close: err = %v, want ErrClosed", err)
	}
}

// TestEngineRefusesWrongDims: a box of the wrong dimensionality is an
// error at submit, and the machine it never reached answers the next box.
func TestEngineRefusesWrongDims(t *testing.T) {
	fx := newFixture(t, 512, 4)
	eng := New(fx.tree, Config{BatchSize: 4, CacheSize: 16})
	defer eng.Close()
	bad := geom.NewBox([]geom.Coord{0, 0, 0}, []geom.Coord{100, 100, 100})
	if _, err := eng.Count(bad); err == nil || !strings.Contains(err.Error(), "3 dims") {
		t.Fatalf("Count of a 3-d box on a 2-d tree: err = %v, want a dims error", err)
	}
	q := workload.Boxes(workload.QuerySpec{M: 1, Dims: 2, N: fx.n, Selectivity: 0.1, Seed: 6})[0]
	got, err := eng.Count(q)
	if err != nil {
		t.Fatalf("Count after the refused box: %v", err)
	}
	if want := int64(fx.bf.Count(q)); got != want {
		t.Fatalf("Count after the refused box = %d, want %d", got, want)
	}
}

// TestLRUEviction pins the cache's capacity behavior.
func TestLRUEviction(t *testing.T) {
	c := newLRU[int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", 3) // evicts b (a was refreshed by the get)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("a = %d/%v, want 1", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
