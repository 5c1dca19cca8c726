package expt

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/workload"
)

// E16 measures the mutable serving store against the read-only engine
// path: query cost read-only (the LSM read amplification over a single
// static tree), query cost under a concurrent update mix, and the
// compaction profile (flush/fold counts and the longest build — the
// write-visibility pause; reads never wait on a build).
func E16(sc Scale) *Table {
	n, q := 1<<13, 192
	if sc == Full {
		n, q = 1<<16, 384
	}
	const d, p = 2, 4
	tab := &Table{
		ID:    "E16",
		Title: "Mutable store: update/query mix vs the read-only path",
		Note: "Top: µs/query of count batches on the frozen tree, on the compacted " +
			"store (read amplification should be near 1× — one level), and on the " +
			"store while writers mutate it concurrently. Bottom: the compaction " +
			"profile — flushes, shadow folds, and the longest level build, which is " +
			"the write-visibility pause (queries never wait on it; they serve the " +
			"previous version).",
		Header: []string{"section", "path", "µs/query", "mutations", "detail"},
	}

	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 16})
	boxes := workload.Boxes(workload.QuerySpec{M: q, Dims: d, N: n, Selectivity: 0.005, Seed: 16})
	perQuery := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start).Microseconds()) / float64(q)
	}

	// Read-only baseline: the frozen tree.
	static := core.Build(cgm.New(cgm.Config{P: p}), pts)
	static.CountBatch(boxes) // warm copy caches
	staticUs := perQuery(func() { static.CountBatch(boxes) })
	tab.AddRow("serve", "static tree", staticUs, "", "")

	// The store, compacted to one level: the read-amplification check.
	st, err := store.Open("", store.Config{Dims: d, P: p, MemtableCap: n / 8, Sync: true})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	if _, err := st.InsertBatch(pts); err != nil {
		panic(err)
	}
	st.Compact()
	st.CountBatch(boxes) // warm
	readOnlyUs := perQuery(func() { st.CountBatch(boxes) })
	readAmp := 0.0
	if staticUs > 0 {
		readAmp = readOnlyUs / staticUs
	}
	tab.AddRow("serve", "store (read-only)", readOnlyUs, "",
		fmt.Sprintf("%.2f× of static", readAmp))

	// The update/query mix: a writer mutates while query batches run.
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		rng := rand.New(rand.NewSource(16))
		muts, next := 0, int32(n)
		for {
			select {
			case <-stop:
				done <- muts
				return
			default:
			}
			ins := make([]geom.Point, 8)
			for i := range ins {
				ins[i] = geom.Point{ID: next, X: []geom.Coord{
					geom.Coord(rng.Intn(4 * n)), geom.Coord(rng.Intn(4 * n))}}
				next++
			}
			if _, err := st.InsertBatch(ins); err != nil {
				panic(err)
			}
			if _, err := st.DeleteBatch(ins[:2]); err != nil {
				panic(err)
			}
			muts += 2
		}
	}()
	mixedUs := perQuery(func() {
		for i := 0; i < 4; i++ {
			st.CountBatch(boxes[:q/4])
		}
	})
	close(stop)
	tab.AddRow("serve", "store (mixed)", mixedUs, <-done, "writer ran throughout")

	// A deletion wave past the 25% threshold forces a shadow fold, so
	// the compaction section shows the full profile.
	if _, err := st.DeleteBatch(pts[:n/3]); err != nil {
		panic(err)
	}

	ss := st.Stats()
	tab.AddRow("compaction", "flushes", "", ss.Flushes, "")
	tab.AddRow("compaction", "shadow folds", "", ss.Compactions, "")
	tab.AddRow("compaction", "max build (pause)", float64(ss.MaxBuild.Microseconds()), "", "write-visibility, not read, latency")
	return tab
}
