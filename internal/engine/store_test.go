package engine

import (
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/workload"
)

func newStoreEngine(t testing.TB, pts []geom.Point, cfg Config) (*store.Store, *Engine[struct{}]) {
	t.Helper()
	st, err := store.Open("", store.Config{Dims: 2, P: 4, MemtableCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	return st, NewStore(st, cfg)
}

// TestCachedAnswersNeverOutliveData is the regression test for the
// answer-cache staleness bug: before cache keys carried a data version,
// an entry cached against one state of the data kept being served after
// the data changed. A cached count must change after an insert into the
// queried box, and again after a delete.
func TestCachedAnswersNeverOutliveData(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 512, Dims: 2, Dist: workload.Uniform, Seed: 31})
	st, eng := newStoreEngine(t, pts, Config{
		BatchSize: 4,
		CacheSize: 256,
	})
	defer st.Close()
	defer eng.Close()
	// The load left the background compactor flushing memtables, and every
	// swap it publishes advances the data version: let it finish, or a swap
	// landing between a query and its repeat turns the expected hit into a
	// (correct) miss.
	st.Compact()

	box := geom.NewBox([]geom.Coord{0, 0}, []geom.Coord{1 << 29, 1 << 29})
	base, err := eng.Count(box)
	if err != nil {
		t.Fatal(err)
	}
	// Ask again: this one must come from the cache.
	again, err := eng.Count(box)
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Fatalf("cached count %d differs from first answer %d", again, base)
	}
	if st := eng.Stats(); st.CacheHits == 0 {
		t.Fatalf("second identical query missed the cache: %+v", st)
	}

	inside := geom.Point{ID: 1 << 20, X: []geom.Coord{5, 5}}
	if err := eng.Insert(inside); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Count(box)
	if err != nil {
		t.Fatal(err)
	}
	if after != base+1 {
		t.Fatalf("count after insert = %d, want %d (stale cache?)", after, base+1)
	}

	if err := eng.Delete(inside); err != nil {
		t.Fatal(err)
	}
	final, err := eng.Count(box)
	if err != nil {
		t.Fatal(err)
	}
	if final != base {
		t.Fatalf("count after delete = %d, want %d (stale cache?)", final, base)
	}
}

// TestStoreEngineMatchesOracleUnderMutation serves queries while the
// store mutates underneath, spot-checking a quiescent engine against the
// brute oracle after each round.
func TestStoreEngineMatchesOracleUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := workload.Points(workload.PointSpec{N: 256, Dims: 2, Dist: workload.Clustered, Seed: 33})
	st, eng := newStoreEngine(t, pts, Config{BatchSize: 16, CacheSize: 64})
	defer st.Close()
	defer eng.Close()

	live := map[int32]geom.Point{}
	for _, p := range pts {
		live[p.ID] = p
	}
	nextID := int32(1 << 20)
	for round := 0; round < 8; round++ {
		// Mutate through the engine.
		var ins []geom.Point
		for i := 0; i < 20; i++ {
			ins = append(ins, geom.Point{ID: nextID, X: []geom.Coord{
				geom.Coord(rng.Intn(1024)), geom.Coord(rng.Intn(1024))}})
			nextID++
		}
		if err := eng.Insert(ins...); err != nil {
			t.Fatal(err)
		}
		for _, p := range ins {
			live[p.ID] = p
		}
		var del []geom.Point
		for _, p := range live {
			del = append(del, p)
			if len(del) == 10 {
				break
			}
		}
		if err := eng.Delete(del...); err != nil {
			t.Fatal(err)
		}
		for _, p := range del {
			delete(live, p.ID)
		}

		var flat []geom.Point
		for _, p := range live {
			flat = append(flat, p)
		}
		bf := brute.New(flat)
		boxes := workload.Boxes(workload.QuerySpec{M: 6, Dims: 2, N: 1024, Selectivity: 0.05, Seed: int64(round)})
		for _, b := range boxes {
			c, err := eng.Count(b)
			if err != nil {
				t.Fatal(err)
			}
			if c != int64(bf.Count(b)) {
				t.Fatalf("round %d: count %d, oracle %d", round, c, bf.Count(b))
			}
			rep, err := eng.Report(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(brute.IDs(rep)) != len(brute.IDs(bf.Report(b))) {
				t.Fatalf("round %d: report size mismatch", round)
			}
		}
	}
}

// TestImmutableEngineRejectsMutation pins the tree-backed engine's
// contract: Insert/Delete fail with ErrImmutable, Aggregate on a
// store-backed engine fails with ErrNoAggregate.
func TestImmutableEngineRejectsMutation(t *testing.T) {
	fx := newFixture(t, 256, 2)
	eng := WithAggregate(fx.tree, fx.agg, Config{})
	defer eng.Close()
	if err := eng.Insert(geom.Point{ID: 1, X: []geom.Coord{1, 1}}); err != ErrImmutable {
		t.Fatalf("Insert on immutable engine: %v", err)
	}
	if err := eng.Delete(geom.Point{ID: 1, X: []geom.Coord{1, 1}}); err != ErrImmutable {
		t.Fatalf("Delete on immutable engine: %v", err)
	}

	pts := workload.Points(workload.PointSpec{N: 64, Dims: 2, Dist: workload.Uniform, Seed: 1})
	st, seng := newStoreEngine(t, pts, Config{})
	defer st.Close()
	defer seng.Close()
	if _, err := seng.Aggregate(geom.NewBox([]geom.Coord{0, 0}, []geom.Coord{9, 9})); err != ErrNoAggregate {
		t.Fatalf("Aggregate on store engine: %v", err)
	}
}
