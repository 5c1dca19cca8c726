// Mutable: a read/write workload against the versioned serving store.
//
// The paper's structure is static — its conclusion names a dynamic
// distributed structure as the open problem. This example runs the
// repository's answer end to end: writers insert and delete points
// through the store-backed engine while readers query it, the
// background compactor flushes memtables into logarithmic-method levels
// and folds tombstones, and every answer is consistent with some
// pinned version. At the end the store checkpoints, the process
// "crashes" (the handle is abandoned), and a reopened store must answer
// exactly like the brute-force oracle over the surviving live set.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/brute"
)

func main() {
	const (
		n       = 1 << 12
		writers = 2
		readers = 8
		rounds  = 120 // mutations per writer
	)
	dir := filepath.Join(os.TempDir(), fmt.Sprintf("drtree-mutable-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: drtree.Uniform, Seed: 5})
	st, err := drtree.OpenStore(dir, drtree.StoreConfig{Dims: 2, P: 4, MemtableCap: 512})
	if err != nil {
		panic(err)
	}
	if _, err := st.InsertBatch(pts); err != nil {
		panic(err)
	}
	eng := drtree.NewStoreEngine(st, drtree.EngineConfig{BatchSize: 64})

	// Shared registry of live points so writers delete real points and
	// the final oracle knows the expected state.
	var regMu sync.Mutex
	live := make(map[int32]drtree.Point, n)
	for _, p := range pts {
		live[p.ID] = p
	}
	nextID := atomic.Int32{}
	nextID.Store(n)

	var answered atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				if rng.Intn(3) == 0 {
					regMu.Lock()
					var victim drtree.Point
					found := false
					for _, p := range live {
						victim, found = p, true
						break
					}
					if found {
						delete(live, victim.ID)
					}
					regMu.Unlock()
					if found {
						if err := eng.Delete(victim); err != nil {
							panic(err)
						}
					}
				} else {
					p := drtree.Point{ID: nextID.Add(1) - 1, X: []drtree.Coord{
						drtree.Coord(rng.Intn(4 * n)), drtree.Coord(rng.Intn(4 * n))}}
					if err := eng.Insert(p); err != nil {
						panic(err)
					}
					regMu.Lock()
					live[p.ID] = p
					regMu.Unlock()
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			boxes := drtree.GenerateBoxes(drtree.QuerySpec{
				M: 64, Dims: 2, N: 4 * n, Selectivity: 0.01, Seed: int64(r)})
			for i := 0; i < 10*rounds; i++ {
				q := boxes[rng.Intn(len(boxes))]
				if i%2 == 0 {
					if _, err := eng.Count(q); err != nil {
						panic(err)
					}
				} else {
					if _, err := eng.Report(q); err != nil {
						panic(err)
					}
				}
				answered.Add(1)
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	es, ss := eng.Stats(), st.Stats()
	fmt.Printf("mutable: %d writers × %d mutations, %d readers, n=%d start\n", writers, rounds, readers, n)
	fmt.Printf("  %d queries in %v (%.0f queries/s) alongside the writes\n",
		answered.Load(), elapsed.Round(time.Millisecond), float64(answered.Load())/elapsed.Seconds())
	fmt.Printf("  engine: %d batches, cache %d hit / %d miss\n", es.Batches, es.CacheHits, es.CacheMisses)
	fmt.Printf("  store: version %d, %d live, %d levels | %d flushes, %d shadow folds, max build %v\n",
		ss.Seq, ss.Live, ss.Levels, ss.Flushes, ss.Compactions, ss.MaxBuild.Round(time.Microsecond))

	// Checkpoint, crash, recover: the reopened store must agree with
	// the brute-force oracle over the registry's live set.
	if err := st.Checkpoint(); err != nil {
		panic(err)
	}
	eng.Close()
	// (crash: st is abandoned without Close — the checkpoint plus WAL
	// carry the state)
	re, err := drtree.OpenStore(dir, drtree.StoreConfig{P: 4, MemtableCap: 512})
	if err != nil {
		panic(err)
	}
	defer re.Close()

	var flat []drtree.Point
	for _, p := range live {
		flat = append(flat, p)
	}
	oracle := brute.New(flat)
	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: 32, Dims: 2, N: 4 * n, Selectivity: 0.02, Seed: 999})
	counts, err := re.CountBatch(boxes)
	if err != nil {
		panic(err)
	}
	mismatches := 0
	for i, b := range boxes {
		if counts[i] != int64(oracle.Count(b)) {
			mismatches++
		}
	}
	fmt.Printf("  recovery: reopened %d live points at version %d; %d/%d oracle checks failed\n",
		re.LiveN(), re.Version(), mismatches, len(boxes))
	if re.LiveN() != len(flat) || mismatches > 0 {
		fmt.Println("  RECOVERY MISMATCH")
		os.Exit(1)
	}
	fmt.Println("  recovered state matches the oracle exactly")
}
