package layered

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// benchInput is one element of the repository benchmark's shape: clustered
// rank-normalised points and 256 boxes at the workload's selectivity
// (0.2 % at d = 2, 1 % at d = 3), so a query benchmark rotates over boxes
// instead of timing one.
func benchInput(n, d int) ([]geom.Point, []geom.Box) {
	sel := 0.002
	if d == 3 {
		sel = 0.01
	}
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Clusters: 32, Spread: 0.02, Seed: 1})
	return pts, workload.Boxes(workload.QuerySpec{M: 256, Dims: d, N: n, Selectivity: sel, Seed: 1})
}

func benchBuild(b *testing.B, d int) {
	pts, _ := benchInput(1<<12, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

func BenchmarkBuild2D(b *testing.B) { benchBuild(b, 2) }
func BenchmarkBuild3D(b *testing.B) { benchBuild(b, 3) }

var benchTotal int

func benchCount(b *testing.B, n, d int) {
	pts, boxes := benchInput(n, d)
	t := Build(pts)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += t.Count(boxes[i%len(boxes)])
	}
	benchTotal = total
}

func BenchmarkCount2D(b *testing.B) { benchCount(b, 1<<14, 2) }
func BenchmarkCount3D(b *testing.B) { benchCount(b, 1<<12, 3) }

var benchSum float64

// benchAgg times Agg.Query for a float64 sum on both layouts: "group"
// (FloatSum, prefix tables) and "semigroup" (the same sum without its
// Inverse, segment trees).
func benchAgg(b *testing.B, d int) {
	pts, boxes := benchInput(1<<14, d)
	t := Build(pts)
	for _, tc := range []struct {
		name string
		m    semigroup.Monoid[float64]
	}{{"group", semigroup.FloatSum()}, {"semigroup", noInverse(semigroup.FloatSum())}} {
		agg := NewAgg(t, tc.m, workload.WeightOf)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += agg.Query(boxes[i%len(boxes)])
			}
			benchSum = sum
		})
	}
}

func BenchmarkAgg2D(b *testing.B) { benchAgg(b, 2) }
func BenchmarkAgg3D(b *testing.B) { benchAgg(b, 3) }

func BenchmarkReport2D(b *testing.B) {
	pts, boxes := benchInput(1<<14, 2)
	t := Build(pts)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += len(t.Report(boxes[i%len(boxes)]))
	}
	benchTotal = total
}
