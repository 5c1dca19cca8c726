package drtree_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/brute"
	"repro/internal/workload"
)

// TestEngineFacade exercises the serving layer through the public API:
// mixed-mode concurrent submitters, answers checked against brute force.
func TestEngineFacade(t *testing.T) {
	n := 1 << 10
	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: drtree.Uniform, Seed: 3})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 4})
	tree := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociative(tree, drtree.FloatSum(), workload.WeightOf)
	bf := brute.New(pts)

	eng := drtree.NewAggregateEngine(tree, h, drtree.EngineConfig{
		BatchSize: 16, CacheSize: 64,
	})
	defer eng.Close()

	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: 96, Dims: 2, N: n, Selectivity: 0.02, Seed: 6})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(boxes); i += 8 {
				q := boxes[i]
				switch i % 3 {
				case 0:
					got, err := eng.Count(q)
					if err != nil {
						t.Errorf("Count: %v", err)
						return
					}
					if want := int64(bf.Count(q)); got != want {
						t.Errorf("query %d: count %d, want %d", i, got, want)
					}
				case 1:
					got, err := eng.Aggregate(q)
					if err != nil {
						t.Errorf("Aggregate: %v", err)
						return
					}
					want := brute.Aggregate(bf, drtree.FloatSum(), workload.WeightOf, q)
					if d := got - want; d > 1e-6 || d < -1e-6 {
						t.Errorf("query %d: agg %v, want %v", i, got, want)
					}
				default:
					got, err := eng.Report(q)
					if err != nil {
						t.Errorf("Report: %v", err)
						return
					}
					if want := bf.Count(q); len(got) != want {
						t.Errorf("query %d: %d points, want %d", i, len(got), want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := eng.Stats(); st.Submitted != uint64(len(boxes)) {
		t.Errorf("Submitted = %d, want %d", st.Submitted, len(boxes))
	}
}

// TestMixedBatchFacade drives the one-machine-run mixed dispatch path
// through the public API.
func TestMixedBatchFacade(t *testing.T) {
	n := 512
	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: workload.Correlated, Seed: 9})
	mach := drtree.NewMachine(drtree.MachineConfig{P: 4})
	tree := drtree.BuildDistributed(mach, pts)
	h := drtree.PrepareAssociative(tree, drtree.FloatSum(), workload.WeightOf)
	bf := brute.New(pts)

	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: 30, Dims: 2, N: n, Selectivity: 0.05, Seed: 2})
	ops := make([]drtree.QueryOp, len(boxes))
	for i := range ops {
		ops[i] = drtree.QueryOp(i % 3)
	}
	results := drtree.MixedBatch(tree, h, ops, boxes)
	for i, r := range results {
		switch ops[i] {
		case drtree.OpCount:
			if want := int64(bf.Count(boxes[i])); r.Count != want {
				t.Fatalf("query %d: count %d, want %d", i, r.Count, want)
			}
		case drtree.OpAggregate:
			want := brute.Aggregate(bf, drtree.FloatSum(), workload.WeightOf, boxes[i])
			if d := r.Agg - want; d > 1e-6 || d < -1e-6 {
				t.Fatalf("query %d: agg %v, want %v", i, r.Agg, want)
			}
		case drtree.OpReport:
			if want := bf.Count(boxes[i]); len(r.Pts) != want {
				t.Fatalf("query %d: %d points, want %d", i, len(r.Pts), want)
			}
		}
	}
}
