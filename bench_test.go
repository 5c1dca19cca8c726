// Root benchmark harness: one benchmark per reproduced table/figure, as
// indexed in DESIGN.md §8. `go test -bench=. -benchmem` exercises every
// experiment at benchmark scale; cmd/rangebench prints the full tables.
package drtree_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/kdtree"
	"repro/internal/layered"
	"repro/internal/rangetree"
	"repro/internal/segtree"
	"repro/internal/workload"
)

// benchPoints/benchBoxes memoize workloads across benchmarks.
var workloadCache = map[string][]drtree.Point{}

func benchPoints(n, d int) []drtree.Point {
	key := fmt.Sprintf("%d/%d", n, d)
	if pts, ok := workloadCache[key]; ok {
		return pts
	}
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 1})
	workloadCache[key] = pts
	return pts
}

func benchBoxes(m, n, d int, sel float64) []drtree.Box {
	return workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: sel, Seed: 1})
}

// BenchmarkF1_SegmentTreeCover measures the canonical decomposition of
// Figure 1's structure at scale: the O(log n) cover underlying every
// search.
func BenchmarkF1_SegmentTreeCover(b *testing.B) {
	s := segtree.NewShape(1 << 20)
	b.ReportAllocs()
	total := 0
	for i := 0; i < b.N; i++ {
		lo := (i * 7919) % (1 << 19)
		hi := lo + (i*104729)%(1<<19)
		s.Cover(lo, hi, func(int) { total++ })
	}
	_ = total
}

// BenchmarkF2_Labeling measures the Definition 2 path labeling used to
// name every tree of the structure.
func BenchmarkF2_Labeling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := segtree.RootPathKey.Extend(i%1024 + 1).Extend(i%64 + 1)
		if k.Dim() != 3 {
			b.Fatal("bad dim")
		}
	}
}

// BenchmarkF3_HatForestDecomposition builds the Figure 3 structure (the
// hat/forest cut) at benchmark size.
func BenchmarkF3_HatForestDecomposition(b *testing.B) {
	pts := benchPoints(1<<12, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
		t := drtree.BuildDistributed(mach, pts)
		if t.HatNodeCount() == 0 {
			b.Fatal("empty hat")
		}
	}
}

// BenchmarkT1_StructureSizes reproduces Table T1: structure size ratios
// reported as benchmark metrics.
func BenchmarkT1_StructureSizes(b *testing.B) {
	pts := benchPoints(1<<12, 2)
	s := rangetree.Build(pts).Nodes()
	var hat, maxF int
	for i := 0; i < b.N; i++ {
		mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
		t := drtree.BuildDistributed(mach, pts)
		hat = t.HatNodeCount()
		maxF = 0
		parts, err := t.ForestPartNodes()
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range parts {
			if x > maxF {
				maxF = x
			}
		}
	}
	b.ReportMetric(float64(hat), "hat-nodes")
	b.ReportMetric(float64(maxF)/(float64(s)/8), "maxF/(s÷p)")
}

// BenchmarkT2_Construct reproduces Table T2: Algorithm Construct.
func BenchmarkT2_Construct(b *testing.B) {
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			pts := benchPoints(1<<12, 2)
			var rounds, maxH int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach := drtree.NewMachine(drtree.MachineConfig{P: p})
				drtree.BuildDistributed(mach, pts)
				mt := mach.Metrics()
				rounds, maxH = mt.CommRounds(), mt.MaxH()
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(maxH), "max-h")
		})
	}
}

// BenchmarkT3_Search reproduces Table T3: a batch of n counting queries.
func BenchmarkT3_Search(b *testing.B) {
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			n := 1 << 12
			pts := benchPoints(n, 2)
			mach := drtree.NewMachine(drtree.MachineConfig{P: p})
			t := drtree.BuildDistributed(mach, pts)
			boxes := benchBoxes(n, n, 2, 0.001)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.CountBatch(boxes)
			}
			mach.ResetMetrics()
			t.CountBatch(boxes)
			b.ReportMetric(float64(mach.Metrics().CommRounds()), "rounds")
		})
	}
}

// BenchmarkT4a_Associative reproduces Table T4a: weighted-sum batches.
func BenchmarkT4a_Associative(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	t := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociative(t, drtree.FloatSum(), workload.WeightOf)
	boxes := benchBoxes(n/2, n, 2, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Batch(boxes)
	}
}

// BenchmarkT4b_Report reproduces Table T4b: report mode across
// selectivities; the balance metric is max pairs per processor over k/p.
func BenchmarkT4b_Report(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	t := drtree.BuildDistributed(mach, pts)
	for _, sel := range []float64{0.001, 0.05} {
		b.Run(fmt.Sprintf("sel=%v", sel), func(b *testing.B) {
			boxes := benchBoxes(256, n, 2, sel)
			var balance float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, perProc := t.ReportBatchBalance(boxes)
				k := 0
				for _, r := range results {
					k += len(r)
				}
				mx := 0
				for _, c := range perProc {
					if c > mx {
						mx = c
					}
				}
				if k > 0 {
					balance = float64(mx) / (float64(k) / 8)
				}
			}
			b.ReportMetric(balance, "k/p-balance")
		})
	}
}

// BenchmarkE5_Baselines reproduces Table E5: sequential range tree vs k-d
// tree vs scan on identical query batches.
func BenchmarkE5_Baselines(b *testing.B) {
	n, d := 1<<14, 2
	pts := benchPoints(n, d)
	shapes := map[string][]drtree.Box{
		"square": benchBoxes(256, n, d, 0.0005),
		"slab":   workload.SlabBoxes(256, d, n, 0.002, 1),
	}
	rt := rangetree.Build(pts)
	kd := kdtree.Build(pts)
	bf := brute.New(pts)
	sink := 0
	for _, shape := range []string{"square", "slab"} {
		boxes := shapes[shape]
		b.Run(shape+"/rangetree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range boxes {
					sink += rt.Count(q)
				}
			}
		})
		b.Run(shape+"/kdtree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range boxes {
					sink += kd.Count(q)
				}
			}
		})
		b.Run(shape+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range boxes {
					sink += bf.Count(q)
				}
			}
		})
	}
	_ = sink
}

// BenchmarkE6_Balance reproduces Table E6: hot-spot batches exercising the
// c_j-copy load balancing.
func BenchmarkE6_Balance(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	t := drtree.BuildDistributed(mach, pts)
	hot := workload.Boxes(workload.QuerySpec{M: n, Dims: 2, N: n, Selectivity: 0.0005, Foci: 1, Seed: 2})
	var factor float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.CountBatch(hot)
		stats := t.LastSearchStats()
		total, mx := 0, 0
		for _, s := range stats {
			total += s.Served
			if s.Served > mx {
				mx = s.Served
			}
		}
		if total > 0 {
			factor = float64(mx) / (float64(total) / 8)
		}
	}
	b.ReportMetric(factor, "served-load-factor")
}

// BenchmarkE7_HRelations reproduces Table E7: the h audit over a full
// build+search cycle.
func BenchmarkE7_HRelations(b *testing.B) {
	n, p := 1<<12, 4
	pts := benchPoints(n, 2)
	s := rangetree.Build(pts).Nodes()
	boxes := benchBoxes(n, n, 2, 0.001)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach := drtree.NewMachine(drtree.MachineConfig{P: p})
		t := drtree.BuildDistributed(mach, pts)
		t.CountBatch(boxes)
		worst = 0
		for _, r := range mach.Metrics().Rounds {
			if r.Final {
				continue
			}
			if ratio := float64(r.MaxH) * float64(p) / float64(s); ratio > worst {
				worst = ratio
			}
		}
	}
	b.ReportMetric(worst, "worst-h·p/s")
}

// BenchmarkE8_DimensionSweep reproduces Table E8: construction across d.
func BenchmarkE8_DimensionSweep(b *testing.B) {
	for _, d := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			pts := benchPoints(1<<10, d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach := drtree.NewMachine(drtree.MachineConfig{P: 4})
				drtree.BuildDistributed(mach, pts)
			}
		})
	}
}

// BenchmarkE9_Speedup reproduces Table E9: modelled time in Measured mode
// across machine widths.
func BenchmarkE9_Speedup(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	boxes := benchBoxes(n, n, 2, 0.001)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var model float64
			for i := 0; i < b.N; i++ {
				mach := drtree.NewMachine(drtree.MachineConfig{P: p, Mode: cgm.Measured})
				t := drtree.BuildDistributed(mach, pts)
				mach.ResetMetrics()
				t.CountBatch(boxes)
				model = float64(mach.Metrics().ModelTime(cgm.DefaultG, cgm.DefaultL).Microseconds())
			}
			b.ReportMetric(model, "search-Tmodel-µs")
		})
	}
}

// BenchmarkE10_BatchSize reproduces Table E10: amortizing rounds over m.
func BenchmarkE10_BatchSize(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	t := drtree.BuildDistributed(mach, pts)
	for _, m := range []int{n / 16, n, 4 * n} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			boxes := benchBoxes(m, n, 2, 0.001)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.CountBatch(boxes)
			}
		})
	}
}

// BenchmarkE11_Layered reproduces Table E11: plain vs layered query time.
func BenchmarkE11_Layered(b *testing.B) {
	n, d := 1<<13, 2
	pts := benchPoints(n, d)
	boxes := benchBoxes(512, n, d, 0.02)
	rt := rangetree.Build(pts)
	lt := layered.Build(pts)
	sink := 0
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range boxes {
				sink += rt.Count(q)
			}
		}
	})
	b.Run("layered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range boxes {
				sink += lt.Count(q)
			}
		}
	})
	_ = sink
}

// BenchmarkE12_DynamicInserts reproduces Table E12: amortized batch
// insertion into the dynamized distributed tree (the store in Sync mode,
// one binary-counter carry per memtable-sized batch).
func BenchmarkE12_DynamicInserts(b *testing.B) {
	n := 1 << 11
	pts := benchPoints(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := drtree.OpenStore("", drtree.StoreConfig{Dims: 2, P: 4, Sync: true, MemtableCap: 32})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < n; off += 32 {
			if _, err := t.InsertBatch(pts[off : off+32]); err != nil {
				b.Fatal(err)
			}
		}
		if t.LiveN() != n {
			b.Fatal("lost points")
		}
		t.Close()
	}
}

// BenchmarkE13_SingleQuery reproduces Table E13: one query answered by all
// processors cooperatively.
func BenchmarkE13_SingleQuery(b *testing.B) {
	n := 1 << 13
	pts := benchPoints(n, 2)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	t := drtree.BuildDistributed(mach, pts)
	g := int32(t.Grain())
	band := drtree.NewBox([]drtree.Coord{g / 2, 100}, []drtree.Coord{int32(n) - g/2, 400})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.SingleCount(band)
	}
}

// BenchmarkDominance measures footnote 2's reduction: box sums via 2^d
// dominance corners.
func BenchmarkDominance(b *testing.B) {
	n := 1 << 13
	pts := benchPoints(n, 2)
	boxes := benchBoxes(512, n, 2, 0.01)
	dom, err := drtree.BuildDominance(pts, drtree.IntSum(), func(drtree.Point) int64 { return 1 })
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range boxes {
			sink += dom.Box(q)
		}
	}
	_ = sink
}

// BenchmarkEngineThroughput measures the serving layer: concurrent
// submitters of single mixed-mode queries against one engine, swept over
// the batch-size knob. queries/s is the serving baseline the next PR has
// to beat; batch=1 is the no-batching strawman (every query pays a full
// machine run).
func BenchmarkEngineThroughput(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	mach := drtree.NewMachine(drtree.MachineConfig{P: 8})
	t := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociative(t, drtree.FloatSum(), workload.WeightOf)
	boxes := benchBoxes(4096, n, 2, 0.001)
	for _, bs := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			eng := drtree.NewAggregateEngine(t, h, drtree.EngineConfig{
				BatchSize: bs,
				CacheSize: -1, // disabled: measure dispatch, not the cache
			})
			defer eng.Close()
			var submitter atomic.Int64
			b.SetParallelism(4) // 4×GOMAXPROCS concurrent submitters
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(submitter.Add(1)) * 7919
				for pb.Next() {
					q := boxes[i%len(boxes)]
					switch i % 3 {
					case 0:
						if _, err := eng.Count(q); err != nil {
							b.Error(err)
							return
						}
					case 1:
						if _, err := eng.Aggregate(q); err != nil {
							b.Error(err)
							return
						}
					default:
						if _, err := eng.Report(q); err != nil {
							b.Error(err)
							return
						}
					}
					i++
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			st := eng.Stats()
			if st.Batches > 0 {
				b.ReportMetric(float64(st.BatchedQueries)/float64(st.Batches), "queries/batch")
			}
		})
	}
}

// BenchmarkStoreMixed measures the mutable store behind the engine: the
// read sub-benchmark serves the same workload as BenchmarkEngineThroughput
// batch=64 but from a compacted store (acceptance: within 1.5× of the
// immutable path), and the mixed sub-benchmark adds a background writer
// issuing inserts and deletes throughout, with the compactor flushing and
// folding underneath the readers.
func BenchmarkStoreMixed(b *testing.B) {
	n := 1 << 12
	pts := benchPoints(n, 2)
	boxes := benchBoxes(4096, n, 2, 0.001)

	run := func(b *testing.B, mutate bool) {
		st, err := drtree.OpenStore("", drtree.StoreConfig{Dims: 2, P: 8, MemtableCap: 1024})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		if _, err := st.InsertBatch(pts); err != nil {
			b.Fatal(err)
		}
		st.Compact()
		eng := drtree.NewStoreEngine(st, drtree.EngineConfig{
			BatchSize: 64,
			CacheSize: -1, // disabled: measure dispatch, not the cache
		})
		defer eng.Close()

		stop := make(chan struct{})
		writerDone := make(chan struct{})
		var mutations atomic.Int64
		if mutate {
			go func() {
				defer close(writerDone)
				next := int32(n)
				tick := time.NewTicker(500 * time.Microsecond) // ~20k mutations/s offered
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					ins := make([]drtree.Point, 8)
					for i := range ins {
						ins[i] = drtree.Point{ID: next, X: []drtree.Coord{
							drtree.Coord(int(next) % (4 * n)), drtree.Coord(int(next) * 7 % (4 * n))}}
						next++
					}
					if _, err := st.InsertBatch(ins); err != nil {
						b.Error(err)
						return
					}
					if _, err := st.DeleteBatch(ins[:2]); err != nil {
						b.Error(err)
						return
					}
					mutations.Add(2)
				}
			}()
		} else {
			close(writerDone)
		}

		var submitter atomic.Int64
		b.SetParallelism(4)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(submitter.Add(1)) * 7919
			for pb.Next() {
				q := boxes[i%len(boxes)]
				if i%3 == 0 {
					if _, err := eng.Report(q); err != nil {
						b.Error(err)
						return
					}
				} else {
					if _, err := eng.Count(q); err != nil {
						b.Error(err)
						return
					}
				}
				i++
			}
		})
		b.StopTimer()
		close(stop)
		<-writerDone // before the deferred Close tears the store down
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		if mutate {
			b.ReportMetric(float64(mutations.Load())/b.Elapsed().Seconds(), "mutations/s")
		}
	}

	b.Run("read", func(b *testing.B) { run(b, false) })
	b.Run("mixed", func(b *testing.B) { run(b, true) })
}

// BenchmarkExptTables runs the quick-scale table generators end to end —
// the exact code path behind cmd/rangebench.
func BenchmarkExptTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := expt.F1(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
		if tab := expt.T1(expt.Quick); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// TestBenchWorkloadsSane guards the benchmark workloads themselves.
func TestBenchWorkloadsSane(t *testing.T) {
	pts := benchPoints(1<<10, 2)
	if len(pts) != 1<<10 {
		t.Fatal("bad point count")
	}
	mach := drtree.NewMachine(drtree.MachineConfig{P: 4})
	tree := drtree.BuildDistributed(mach, pts)
	boxes := benchBoxes(100, 1<<10, 2, 0.01)
	counts := tree.CountBatch(boxes)
	bf := brute.New(pts)
	for i, q := range boxes {
		if counts[i] != int64(bf.Count(q)) {
			t.Fatalf("benchmark workload mismatch at %d", i)
		}
	}
	var _ core.ElemInfo // keep the core import for its exported types
}
