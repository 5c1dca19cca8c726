package model

import (
	"math"
	"testing"
	"time"

	"repro/internal/cgm"
)

func TestStructureSize(t *testing.T) {
	if structureSize(1024, 1) != 1024 {
		t.Error("d=1 size should be n")
	}
	if structureSize(1024, 2) != 1024*10 {
		t.Errorf("d=2 size = %v, want n·log n", structureSize(1024, 2))
	}
	if structureSize(1024, 3) != 1024*100 {
		t.Errorf("d=3 size = %v", structureSize(1024, 3))
	}
}

func TestPredictDecreasesWithP(t *testing.T) {
	w := ConstructWorkload(1<<14, 2)
	pm := Params{A: 10, B: 50, L: 20000}
	prev := math.Inf(1)
	for _, p := range []int{1, 2, 4, 8, 16} {
		cur := Predict(w, pm, p)
		if cur >= prev {
			t.Fatalf("prediction not decreasing at p=%d: %v ≥ %v", p, cur, prev)
		}
		prev = cur
	}
}

func TestPredictApproachesLatencyFloor(t *testing.T) {
	w := SearchWorkload(1<<12, 2, 1<<12)
	pm := Params{A: 1, B: 1, L: 1e6}
	floor := float64(w.Rounds) * pm.L
	huge := Predict(w, pm, 1<<20)
	if huge < floor || huge > floor*1.01 {
		t.Errorf("prediction at huge p = %v, want ≈ round floor %v", huge, floor)
	}
}

func TestScorePerfectFit(t *testing.T) {
	w := ConstructWorkload(1<<12, 2)
	pm := Params{A: 7, B: 3, L: 1000}
	measured := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8} {
		measured[p] = Predict(w, pm, p)
	}
	if s := Score(w, pm, measured); s != 1 {
		t.Errorf("perfect fit score = %v, want 1", s)
	}
}

func TestScoreSymmetric(t *testing.T) {
	w := ConstructWorkload(1<<12, 2)
	pm := Params{A: 7, B: 3, L: 1000}
	over := map[int]float64{4: Predict(w, pm, 4) * 2}
	under := map[int]float64{4: Predict(w, pm, 4) / 2}
	if Score(w, pm, over) != Score(w, pm, under) {
		t.Error("multiplicative error should be symmetric")
	}
	if got := Score(w, pm, over); math.Abs(got-2) > 1e-9 {
		t.Errorf("score = %v, want 2", got)
	}
}

func TestScoreEmpty(t *testing.T) {
	if !math.IsNaN(Score(ConstructWorkload(64, 1), Params{}, nil)) {
		t.Error("empty measurement set should score NaN")
	}
}

func TestFitRecoverySane(t *testing.T) {
	// Fit against synthetic measurements generated by the model itself;
	// the fitted parameters must reproduce those measurements within 2x.
	w := ConstructWorkload(1<<12, 2)
	truth := Params{A: 20, B: cgm.DefaultG, L: cgm.DefaultL}
	fake := func(p int) cgm.Metrics {
		// Build a Metrics whose ModelTime equals the truth prediction:
		// one final round carrying all the time as local work.
		var mt cgm.Metrics
		mt.Fold(cgm.RoundStat{
			Label:   "synthetic",
			MaxWork: durationNS(Predict(w, truth, p)),
			Final:   true,
		})
		return mt
	}
	pm := Fit(w, 1, fake(1), 2, fake(2), cgm.DefaultL)
	measured := map[int]float64{
		1: Predict(w, truth, 1),
		2: Predict(w, truth, 2),
		4: Predict(w, truth, 4),
		8: Predict(w, truth, 8),
	}
	if s := Score(w, pm, measured); s > 2 {
		t.Errorf("fit score %v, want ≤ 2", s)
	}
}

func durationNS(ns float64) time.Duration { return time.Duration(ns) }
