package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

func benchTree(b *testing.B, n, d, p int) (*Tree, []geom.Box) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, n, d)
	mach := cgm.New(cgm.Config{P: p})
	dt := Build(mach, pts)
	return dt, randomBoxes(rng, 512, n, d)
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 1<<12, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(cgm.New(cgm.Config{P: 8}), pts)
	}
}

// BenchmarkBuildOn measures Algorithm Construct at the benchmark's scale:
// 65 536 clustered points on p = 4 loopback, one BuildOn per iteration —
// the local sort, the record exchanges, the element and hat builds.
func BenchmarkBuildOn(b *testing.B) {
	const n, p = 1 << 16, 4
	pv := cgm.NewLocalProvider(cgm.Config{P: p})
	for _, d := range []int{2, 3} {
		pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 1})
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildOn(pv, pts, BackendLayered); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
		})
	}
}

// benchWeightSum registers the benchmark's aggregate: the same monoid and
// per-point value as the one the commands register as "weight-sum"
// (internal/aggregates, which imports core, so core's own tests cannot).
const benchWeightSum = "bench/weight-sum"

func init() { RegisterAggregate(benchWeightSum, semigroup.FloatSum(), workload.WeightOf) }

// BenchmarkPrepareAssociative measures the other half of a served tree's
// setup: step 1 of Algorithm AssociativeFunction over a BuildOn-sized
// tree (65 536 clustered points, d = 3, p = 4), one PrepareAssociativeNamed
// per iteration — the element annotations, the roots broadcast and the
// hat annotation.
func BenchmarkPrepareAssociative(b *testing.B) {
	const n, d, p = 1 << 16, 3, 4
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 1})
	dt, err := BuildOn(cgm.NewLocalProvider(cgm.Config{P: p}), pts, BackendLayered)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrepareAssociativeNamed[float64](dt, benchWeightSum)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
}

// mixedBench is a served tree at one of the benchmark's batch shapes:
// 65 536 clustered points (32 blobs, spread 0.02) on p = 4 loopback, the
// weight-sum aggregate prepared, and 16 box sets to rotate over, served
// once each to warm the copy caches and arenas.
type mixedBench struct {
	dt   *Tree
	agg  *AggHandle[float64]
	ops  []MixedOp
	sets [][]geom.Box
}

func newMixedBench(cfg cgm.Config, d, m int, sel float64, cycle ...MixedOp) *mixedBench {
	const n, sets = 1 << 16, 16
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Clusters: 32, Spread: 0.02, Seed: 1})
	dt, err := BuildOn(cgm.NewLocalProvider(cfg), pts, BackendLayered)
	if err != nil {
		panic(err)
	}
	mb := &mixedBench{dt: dt, agg: PrepareAssociativeNamed[float64](dt, benchWeightSum), ops: make([]MixedOp, m)}
	for i := range mb.ops {
		mb.ops[i] = cycle[i%len(cycle)]
	}
	for i := range sets {
		mb.sets = append(mb.sets, workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: sel, Seed: int64(i)}))
	}
	for _, bs := range mb.sets {
		MixedBatch(dt, mb.agg, mb.ops, bs)
	}
	return mb
}

// run serves b.N batches, rotating over the box sets, and reports q/s.
func (mb *mixedBench) run(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MixedBatch(mb.dt, mb.agg, mb.ops, mb.sets[i%len(mb.sets)])
	}
	b.ReportMetric(float64(b.N*len(mb.ops))/b.Elapsed().Seconds(), "q/s")
}

// The benchmarks' trees are built and warmed once per process: the
// testing package calls a benchmark again for each b.N it tries, and a
// rebuild would put construction and cold copy installs in its profile.
var (
	mixedBenchD3 = sync.OnceValue(func() *mixedBench {
		return newMixedBench(cgm.Config{P: 4}, 3, 512, 0.01, OpCount, OpAggregate)
	})
	mixedBenchResident = sync.OnceValue(func() *mixedBench {
		return newMixedBench(cgm.Config{P: 4, Resident: true}, 2, 256, 0.002, OpCount, OpAggregate, OpReport)
	})
)

// BenchmarkMixedBatchD3 measures query serving at the benchmark's
// batch-loop-d3 shape: d = 3, fabric parts, batches of 512 boxes at
// selectivity 0.01 alternating count and the weight-sum aggregate. Its
// elements are far larger than L2, unlike the layered package's
// micro-benchmarks, so the cascade's layout shows here.
func BenchmarkMixedBatchD3(b *testing.B) { mixedBenchD3().run(b) }

// BenchmarkMixedBatchResident measures query serving at the benchmark's
// batch-tcp-report shape on loopback: d = 2, resident parts, batches of
// 256 boxes at selectivity 0.002 cycling count, aggregate and report, so
// phase C's collect replies — counts, aggregates and hit blocks — are
// encoded and decoded as over TCP, without the sockets.
func BenchmarkMixedBatchResident(b *testing.B) { mixedBenchResident().run(b) }

// BenchmarkGroupReports measures the report epilogue at the benchmark's
// batch-tcp-report shape: 65 536 clustered points (32 blobs, spread 0.02),
// d = 2, p = 4, 256 boxes at selectivity 0.002 with every third a report,
// ≈ 11 000 pairs. One machine run leaves the ranks' pair blocks as the
// grouping finds them; each iteration groups those blocks again.
func BenchmarkGroupReports(b *testing.B) {
	const n, d, p, m = 1 << 16, 2, 4, 256
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Clusters: 32, Spread: 0.02, Seed: 1})
	dt, err := BuildOn(cgm.NewLocalProvider(cgm.Config{P: p}), pts, BackendLayered)
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]MixedOp, m)
	for i := range ops {
		if i%3 == 2 {
			ops[i] = OpReport
		}
	}
	fr := mixedFrameOf[struct{}](dt)
	fr.boxes, fr.ops, fr.holds = workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.002, Seed: 1}), ops, 1<<OpCount|1<<OpReport
	fr.results = make([]MixedResult[struct{}], m)
	dt.prepBatch()
	dt.mach.Run(fr.prog)
	blocks := slices.Clone(fr.rep.perProc)
	pairs := 0
	for _, blk := range blocks {
		pairs += len(blk)
	}
	fr.unpin()
	rb := newReportBlocks(p)
	results := make([]MixedResult[struct{}], m)
	copy(rb.perProc, blocks)
	groupReports(&rb, results) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rb.perProc, blocks)
		groupReports(&rb, results)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}

func BenchmarkCountBatch(b *testing.B) {
	dt, boxes := benchTree(b, 1<<12, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.CountBatch(boxes)
	}
}

func BenchmarkReportBatch(b *testing.B) {
	dt, boxes := benchTree(b, 1<<12, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.ReportBatch(boxes)
	}
}

// benchHatSink counts descent outcomes without other work.
type benchHatSink struct{ sels, subs int }

func (s *benchHatSink) hatSelection(Query, hatSel) { s.sels++ }
func (s *benchHatSink) forestSub(subquery)         { s.subs++ }

func BenchmarkHatSearchOnly(b *testing.B) {
	dt, boxes := benchTree(b, 1<<14, 2, 16)
	ps := dt.procs[0]
	var sink benchHatSink
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{ID: 0, Box: boxes[i%len(boxes)]}
		ps.hatSearch(dt, q, &sink)
	}
}

func BenchmarkSingleCount(b *testing.B) {
	dt, boxes := benchTree(b, 1<<12, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.SingleCount(boxes[i%len(boxes)])
	}
}

func BenchmarkVerify(b *testing.B) {
	dt, _ := benchTree(b, 1<<12, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dt.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhaseCServe measures batch serving on layered forest elements
// at the acceptance scale (n = 2^17, d = 3): count and report workloads,
// phase C dominated (the copy cache is warmed before measuring). E15
// compares the element structures themselves.
func BenchmarkPhaseCServe(b *testing.B) {
	const n, d, p, q = 1 << 17, 3, 8, 256
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, n, d)
	dt := Build(cgm.New(cgm.Config{P: p}), pts)
	boxes := randomBoxes(rng, q, n/16, d) // moderate selectivity
	dt.CountBatch(boxes)                  // warm copy caches
	b.Run("count/layered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dt.CountBatch(boxes)
		}
	})
	b.Run("report/layered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dt.ReportBatch(boxes)
		}
	})
}

// BenchmarkPhaseCCopyCache measures phase-B install time on a skewed
// workload, cold (a second tree with caching disabled) versus warm (cache
// kept across batches) — the tax the cross-batch copy cache removes.
func BenchmarkPhaseCCopyCache(b *testing.B) {
	dt, boxes := skewedSetup(b, 1<<15, 3, 8, 256)
	dt.CountBatch(boxes)
	cold, _ := skewedSetup(b, 1<<15, 3, 8, 256)
	cold.SetCopyCacheCap(-1)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold.CountBatch(boxes)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dt.CountBatch(boxes)
		}
	})
}

// BenchmarkMixedBatchFixedCost measures the part of a machine run that
// does not depend on the batch: a warm MixedBatch of one query, and of
// sixteen for the slope (count-only, one report in four). allocs/op at
// m = 1 is the F that TestRunAllocBudget pins.
func BenchmarkMixedBatchFixedCost(b *testing.B) {
	const n = 1 << 14
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 1})
	dt := Build(cgm.New(cgm.Config{P: 4}), pts)
	for _, m := range []int{1, 16} {
		boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.002, Seed: int64(m)})
		ops := make([]MixedOp, m)
		for i := range ops {
			if i%4 == 3 {
				ops[i] = OpReport
			}
		}
		MixedBatch[struct{}](dt, nil, ops, boxes) // warm copy caches and arenas
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MixedBatch[struct{}](dt, nil, ops, boxes)
			}
		})
	}
}
