package store

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/brute"
	"repro/internal/geom"
)

// TestRunsBinaryCounter adds batches of random sizes and checks the
// index's invariant after every add: each run sorted by (X[0], ID), run
// lengths strictly decreasing — each at least twice the next — so n
// points sit in at most ⌊log₂ n⌋ + 1 runs, and no point lost or doubled.
func TestRunsBinaryCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rs runs
	var all []geom.Point
	for step := 0; step < 200; step++ {
		size := 1 + rng.Intn(40)
		if step%40 == 39 {
			size = 300 + rng.Intn(300) // a compaction-sized tail
		}
		batch := randomPoints(rng, size, 2, int32(len(all)))
		all = append(all, batch...)
		prev := rs
		var snap runs
		for _, r := range prev {
			snap = append(snap, slices.Clone(r))
		}
		rs = rs.add(slices.Clone(batch))
		if !reflect.DeepEqual(prev, snap) {
			t.Fatalf("step %d: add wrote to the list a published version would hold", step)
		}
		n := 0
		for i, r := range rs {
			n += len(r)
			if !slices.IsSortedFunc(r, byX0) {
				t.Fatalf("step %d: run %d not sorted by (X[0], ID)", step, i)
			}
			if i > 0 && len(rs[i-1]) < 2*len(r) {
				t.Fatalf("step %d: run lengths %v: run %d shorter than twice run %d", step, lens(rs), i-1, i)
			}
		}
		if n != len(all) {
			t.Fatalf("step %d: runs hold %d points, added %d", step, n, len(all))
		}
		if bound := int(math.Log2(float64(n))) + 1; len(rs) > bound {
			t.Fatalf("step %d: %d runs for %d points, bound %d", step, len(rs), n, bound)
		}
	}
	var got []geom.Point
	for _, r := range rs {
		got = append(got, r...)
	}
	if !reflect.DeepEqual(brute.IDs(got), brute.IDs(all)) {
		t.Fatal("runs lost or doubled points")
	}
}

func lens(rs runs) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = len(r)
	}
	return out
}

// TestRunsVisitMatchesBrute checks visit against a scan for d ∈ {1, 2,
// 3}: coordinates drawn from a small range so X[0] repeats often, and
// boxes that are ordinary, empty in one dimension (Lo > Hi), or
// unbounded (MinInt32 / MaxInt32).
func TestRunsVisitMatchesBrute(t *testing.T) {
	for d := 1; d <= 3; d++ {
		rng := rand.New(rand.NewSource(int64(d)))
		var rs runs
		var all []geom.Point
		for len(all) < 700 {
			batch := make([]geom.Point, 1+rng.Intn(30))
			for i := range batch {
				x := make([]geom.Coord, d)
				for j := range x {
					x[j] = geom.Coord(rng.Intn(20))
				}
				batch[i] = geom.Point{ID: int32(len(all) + i), X: x}
			}
			all = append(all, batch...)
			rs = rs.add(slices.Clone(batch))
		}
		bf := brute.New(all)
		for q := 0; q < 300; q++ {
			b := randomBoxes(rng, 1, 5, d)[0]
			switch q % 5 {
			case 1: // empty in one dimension
				j := rng.Intn(d)
				b.Lo[j], b.Hi[j] = b.Hi[j]+1, b.Lo[j]
			case 2: // unbounded above
				b.Hi[rng.Intn(d)] = math.MaxInt32
			case 3: // the whole space
				for j := range b.Lo {
					b.Lo[j], b.Hi[j] = math.MinInt32, math.MaxInt32
				}
			}
			var got []geom.Point
			rs.visit(b, func(p geom.Point) { got = append(got, p) })
			if !reflect.DeepEqual(brute.IDs(got), brute.IDs(bf.Report(b))) {
				t.Fatalf("d=%d box %v: visit found %d points, brute %d", d, b, len(got), bf.Count(b))
			}
		}
	}
}
