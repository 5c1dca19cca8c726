package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

// TestElementLevelEquivalence: both balancing granularities must produce
// identical results across all three modes.
func TestElementLevelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(180)
		d := 1 + rng.Intn(3)
		p := 1 + rng.Intn(6)
		dt, bf, _ := buildBoth(rng, n, d, p)
		boxes := randomBoxes(rng, 1+rng.Intn(30), n, d)

		dt.SetBalanceMode(ElementLevel)
		counts := dt.CountBatch(boxes)
		reports := dt.ReportBatch(boxes)
		dt.SetBalanceMode(GroupLevel)
		for i, b := range boxes {
			if counts[i] != int64(bf.Count(b)) {
				return false
			}
			if !reflect.DeepEqual(brute.IDs(reports[i]), brute.IDs(bf.Report(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestElementLevelAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	dt, bf, _ := buildBoth(rng, 150, 2, 4)
	weight := func(pt geom.Point) float64 { return float64(pt.ID%5) + 0.5 }
	h := PrepareAssociative(dt, semigroup.FloatSum(), weight)
	boxes := randomBoxes(rng, 20, 150, 2)
	dt.SetBalanceMode(ElementLevel)
	defer dt.SetBalanceMode(GroupLevel)
	got := h.Batch(boxes)
	for i, b := range boxes {
		want := brute.Aggregate(bf, semigroup.FloatSum(), weight, b)
		if got[i] != want {
			t.Fatalf("query %d: %v vs %v", i, got[i], want)
		}
	}
}

// TestElementLevelShipsLessUnderSparseDemand: with a single hot element,
// element-granularity copying must ship no more points than group
// granularity (which replicates whole parts).
func TestElementLevelShipsLess(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n, p := 512, 8
	dt, _, pts := buildBoth(rng, n, 2, p)
	target := pts[7]
	boxes := make([]geom.Box, n)
	for i := range boxes {
		boxes[i] = geom.Box{
			Lo: []int32{target.X[0] - 1, 1},
			Hi: []int32{target.X[0] + 1, int32(n)},
		}
	}
	dt.SetBalanceMode(GroupLevel)
	dt.CountBatch(boxes)
	groupShipped := dt.LastCopiedPoints()
	dt.SetBalanceMode(ElementLevel)
	// Both volumes are cold: a warm batch ships references, and the
	// hot element is among what the group-level batch just cached.
	dt.InvalidateCopies()
	dt.CountBatch(boxes)
	elemShipped := dt.LastCopiedPoints()
	dt.SetBalanceMode(GroupLevel)
	if groupShipped > 0 && elemShipped > groupShipped {
		t.Errorf("element-level shipped %d points, group-level %d", elemShipped, groupShipped)
	}
}

// TestElementLevelBalancesHotElement: the served load must still spread.
func TestElementLevelBalancesHotElement(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n, p := 512, 8
	dt, bf, pts := buildBoth(rng, n, 2, p)
	target := pts[3]
	boxes := make([]geom.Box, n)
	for i := range boxes {
		boxes[i] = geom.Box{
			Lo: []int32{target.X[0] - 1, 1},
			Hi: []int32{target.X[0] + 1, int32(n)},
		}
	}
	dt.SetBalanceMode(ElementLevel)
	defer dt.SetBalanceMode(GroupLevel)
	got := dt.CountBatch(boxes)
	want := int64(bf.Count(boxes[0]))
	for i := range got {
		if got[i] != want {
			t.Fatalf("query %d: %d vs %d", i, got[i], want)
		}
	}
	stats := dt.LastSearchStats()
	total, mx := 0, 0
	for _, s := range stats {
		total += s.Served
		if s.Served > mx {
			mx = s.Served
		}
	}
	if total == 0 {
		t.Skip("hat absorbed the workload")
	}
	if mx > 2*total/p+2 {
		t.Errorf("element-level congestion: max %d of %d", mx, total)
	}
}
