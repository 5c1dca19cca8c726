package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/workload"
)

// partPoints returns the points of the elements in a part map.
func partPoints(elems map[ElemID]*element) int {
	n := 0
	for _, el := range elems {
		n += int(el.info.Count)
	}
	return n
}

// TestBalancingLemma checks the paper's balancing lemma on real batches,
// cold, at d = 1..4 on fabric loopback: uniform boxes, a hot spot (every
// box the same), broad boxes, and batches below p². For every rank, the
// subqueries it serves stay within 2⌈D/p⌉ + 2 (D = |Q″|), and the copied
// points it holds within twice the largest part: at most two copy slots
// per host, each a subset of one owner's part.
func TestBalancingLemma(t *testing.T) {
	for _, p := range []int{4, 7} {
		for d := 1; d <= 4; d++ {
			n := 1200
			pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: int64(10*p + d)})
			dt := Build(cgm.New(cgm.Config{P: p}), pts)
			dt.SetCopyCacheCap(-1) // every batch cold
			largest := 0
			for _, ps := range dt.procs {
				largest = max(largest, partPoints(ps.part.elems))
			}
			spec := workload.QuerySpec{M: 4 * p * p, Dims: d, N: n, Selectivity: 0.01, Seed: int64(d)}
			uniform := workload.Boxes(spec)
			hot := make([]geom.Box, len(uniform))
			for i := range hot {
				hot[i] = uniform[0]
			}
			spec.Selectivity = 0.2
			broad := workload.Boxes(spec)
			spec.M, spec.Selectivity, spec.Foci, spec.Theta = p*p-1, 0.01, 1, 1.5
			small := workload.Boxes(spec)
			for _, batch := range []struct {
				name  string
				boxes []geom.Box
			}{{"uniform", uniform}, {"hot spot", hot}, {"broad", broad}, {"m<p²", small}} {
				dt.CountBatch(batch.boxes)
				stats := dt.LastSearchStats()
				D := 0
				for _, st := range stats {
					D += st.Served
				}
				bound := 2*((D+p-1)/p) + 2
				for rank, st := range stats {
					if st.Served > bound {
						t.Errorf("p=%d d=%d %s: rank %d serves %d subqueries of D=%d, bound %d",
							p, d, batch.name, rank, st.Served, D, bound)
					}
					if held := partPoints(dt.procs[rank].part.copies); held > 2*largest {
						t.Errorf("p=%d d=%d %s: rank %d holds %d copied points, largest part %d",
							p, d, batch.name, rank, held, largest)
					}
				}
			}
		}
	}
}

// TestElementLevelBalancesHotElement: when every subquery visits one
// element, copying that element alone must still spread the served load.
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
	got := dt.CountBatch(boxes)
	want := int64(bf.Count(boxes[0]))
	for i := range got {
		if got[i] != want {
			t.Fatalf("query %d: %d vs %d", i, got[i], want)
		}
	}
	total, mx := 0, 0
	for _, s := range dt.LastSearchStats() {
		total += s.Served
		mx = max(mx, s.Served)
	}
	if total == 0 {
		t.Skip("hat absorbed the workload")
	}
	if mx > 2*total/p+2 {
		t.Errorf("element-level congestion: max %d of %d", mx, total)
	}
}

// TestHotElementIsTheOnlyCopy: when every subquery visits one element,
// that element is the only one copied, cold, to every host that serves
// its subqueries, and the owner ships nothing else of its part.
func TestHotElementIsTheOnlyCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n, p := 512, 8
	dt, bf, pts := buildBoth(rng, n, 2, p)
	target := pts[7]
	boxes := make([]geom.Box, n)
	for i := range boxes {
		boxes[i] = geom.Box{
			Lo: []int32{target.X[0], 1},
			Hi: []int32{target.X[0], int32(n)},
		}
	}
	got := dt.CountBatch(boxes)
	if want := int64(bf.Count(boxes[0])); got[0] != want {
		t.Fatalf("count %d, oracle %d", got[0], want)
	}
	var copied []ElemID
	hosts := 0
	for _, ps := range dt.procs {
		for id := range ps.part.copies {
			if !slices.Contains(copied, id) {
				copied = append(copied, id)
			}
			hosts++
		}
	}
	if len(copied) != 1 {
		t.Fatalf("copied elements %v, want the one hot element", copied)
	}
	hot := dt.Info()[copied[0]]
	if _, shipped, _ := copyTotals(dt); shipped != hosts*int(hot.Count) {
		t.Errorf("shipped %d points, want %d copies of the hot element's %d", shipped, hosts, hot.Count)
	}
	if hosts != p-1 {
		t.Errorf("the hot element went to %d hosts, want every host but its owner (%d)", hosts, p-1)
	}
}
