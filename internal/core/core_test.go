package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/geom"
	"repro/internal/semigroup"
)

func randomPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for j := range x {
			x[j] = geom.Coord(rng.Intn(4 * n))
		}
		pts[i] = geom.Point{ID: int32(i), X: x}
	}
	return geom.RankNormalize(pts)
}

func randomBoxes(rng *rand.Rand, q, n, d int) []geom.Box {
	boxes := make([]geom.Box, q)
	for i := range boxes {
		lo := make([]geom.Coord, d)
		hi := make([]geom.Coord, d)
		for j := 0; j < d; j++ {
			a := geom.Coord(rng.Intn(n + 2))
			b := geom.Coord(rng.Intn(n + 2))
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return boxes
}

func buildBoth(rng *rand.Rand, n, d, p int) (*Tree, *brute.Set, []geom.Point) {
	pts := randomPoints(rng, n, d)
	mach := cgm.New(cgm.Config{P: p})
	dt := Build(mach, pts)
	return dt, brute.New(pts), pts
}

func TestCountBatchMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		d := 1 + rng.Intn(3)
		p := 1 + rng.Intn(8)
		dt, bf, _ := buildBoth(rng, n, d, p)
		boxes := randomBoxes(rng, 1+rng.Intn(40), n, d)
		got := dt.CountBatch(boxes)
		for i, b := range boxes {
			if got[i] != int64(bf.Count(b)) {
				t.Logf("seed %d n=%d d=%d p=%d query %d: got %d want %d", seed, n, d, p, i, got[i], bf.Count(b))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReportBatchMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		d := 1 + rng.Intn(3)
		p := 1 + rng.Intn(6)
		dt, bf, _ := buildBoth(rng, n, d, p)
		boxes := randomBoxes(rng, 1+rng.Intn(25), n, d)
		got := dt.ReportBatch(boxes)
		for i, b := range boxes {
			want := brute.IDs(bf.Report(b))
			gotIDs := brute.IDs(got[i])
			if len(want) == 0 && len(gotIDs) == 0 {
				continue
			}
			if !reflect.DeepEqual(gotIDs, want) {
				t.Logf("seed %d n=%d d=%d p=%d query %d: got %v want %v", seed, n, d, p, i, gotIDs, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAssociativeMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		d := 1 + rng.Intn(3)
		p := 1 + rng.Intn(6)
		dt, bf, _ := buildBoth(rng, n, d, p)
		weight := func(pt geom.Point) float64 { return float64(pt.ID%11) - 5 }
		hSum := PrepareAssociative(dt, semigroup.FloatSum(), weight)
		hMax := PrepareAssociative(dt, semigroup.MaxFloat(), weight)
		boxes := randomBoxes(rng, 1+rng.Intn(20), n, d)
		sums := hSum.Batch(boxes)
		maxs := hMax.Batch(boxes)
		for i, b := range boxes {
			if sums[i] != brute.Aggregate(bf, semigroup.FloatSum(), weight, b) {
				return false
			}
			if maxs[i] != brute.Aggregate(bf, semigroup.MaxFloat(), weight, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPowersOfTwoExactShape(t *testing.T) {
	// With n and p powers of two the paper's counts are exact: p primary
	// stubs, hat of the primary tree = top log p levels.
	rng := rand.New(rand.NewSource(5))
	n, d, p := 256, 2, 8
	dt, _, _ := buildBoth(rng, n, d, p)
	primaryElems := 0
	for _, info := range dt.Info() {
		if info.Dim == 0 {
			primaryElems++
		}
	}
	if primaryElems != p {
		t.Errorf("primary forest elements = %d, want p = %d", primaryElems, p)
	}
	if dt.Grain() != n/p {
		t.Errorf("grain = %d, want %d", dt.Grain(), n/p)
	}
}

func TestTheorem1SizeBounds(t *testing.T) {
	// Theorem 1: |H| = O(p log^(d-1) p) and |F_i| = O(s/p).
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, d, p int }{
		{512, 1, 8}, {512, 2, 8}, {256, 3, 4}, {1024, 2, 16},
	} {
		dt, _, _ := buildBoth(rng, tc.n, tc.d, tc.p)
		logp := 1
		for x := tc.p; x > 1; x >>= 1 {
			logp++
		}
		hatBound := 8 * tc.p * pow(logp, tc.d-1) * tc.d // generous constant
		if got := dt.HatNodeCount(); got > hatBound {
			t.Errorf("n=%d d=%d p=%d: |H| = %d exceeds bound %d", tc.n, tc.d, tc.p, got, hatBound)
		}
		parts, err := dt.ForestPartNodes()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		mx := 0
		for _, s := range parts {
			total += s
			if s > mx {
				mx = s
			}
		}
		if total == 0 {
			t.Fatalf("n=%d d=%d p=%d: empty forest", tc.n, tc.d, tc.p)
		}
		// max part ≤ 4× average (O(s/p) with a small constant).
		if mx > 4*(total/tc.p+1) {
			t.Errorf("n=%d d=%d p=%d: max |F_i| = %d vs avg %d", tc.n, tc.d, tc.p, mx, total/tc.p)
		}
	}
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

func TestConstructRoundsConstantInN(t *testing.T) {
	// Corollary 1: construction takes O(1) h-relations, independent of n.
	rounds := func(n int) int {
		rng := rand.New(rand.NewSource(9))
		pts := randomPoints(rng, n, 2)
		mach := cgm.New(cgm.Config{P: 4})
		Build(mach, pts)
		return mach.Metrics().CommRounds()
	}
	r1, r2 := rounds(128), rounds(2048)
	if r1 != r2 {
		t.Errorf("construction rounds vary with n: %d vs %d", r1, r2)
	}
}

func TestSearchRoundsConstantInN(t *testing.T) {
	// Corollary 2: the batched search takes O(1) h-relations.
	rounds := func(n int) int {
		rng := rand.New(rand.NewSource(11))
		pts := randomPoints(rng, n, 2)
		mach := cgm.New(cgm.Config{P: 4})
		dt := Build(mach, pts)
		mach.ResetMetrics()
		dt.CountBatch(randomBoxes(rng, n, n, 2))
		return mach.Metrics().CommRounds()
	}
	r1, r2 := rounds(64), rounds(1024)
	if r1 != r2 {
		t.Errorf("search rounds vary with n: %d vs %d", r1, r2)
	}
	if r1 != 3 {
		t.Errorf("a counting search uses %d rounds, want 3", r1)
	}
}

func TestSingleProcessor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dt, bf, _ := buildBoth(rng, 60, 2, 1)
	boxes := randomBoxes(rng, 20, 60, 2)
	got := dt.CountBatch(boxes)
	for i, b := range boxes {
		if got[i] != int64(bf.Count(b)) {
			t.Fatalf("p=1 query %d: %d vs %d", i, got[i], bf.Count(b))
		}
	}
}

func TestMoreProcsThanPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dt, bf, _ := buildBoth(rng, 5, 2, 8)
	boxes := randomBoxes(rng, 10, 5, 2)
	got := dt.CountBatch(boxes)
	for i, b := range boxes {
		if got[i] != int64(bf.Count(b)) {
			t.Fatalf("p>n query %d: %d vs %d", i, got[i], bf.Count(b))
		}
	}
}

func TestEmptyAndFullBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	dt, _, _ := buildBoth(rng, n, 2, 4)
	inverted := geom.NewBox([]geom.Coord{50, 1}, []geom.Coord{2, 64})
	everything := geom.NewBox([]geom.Coord{1, 1}, []geom.Coord{64, 64})
	got := dt.CountBatch([]geom.Box{inverted, everything})
	if got[0] != 0 {
		t.Errorf("inverted box count = %d", got[0])
	}
	if got[1] != int64(n) {
		t.Errorf("full box count = %d, want %d", got[1], n)
	}
	rep := dt.ReportBatch([]geom.Box{everything})
	if len(rep[0]) != n {
		t.Errorf("full box report = %d points", len(rep[0]))
	}
}

func TestEmptyQueryBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dt, _, _ := buildBoth(rng, 32, 2, 4)
	if dt.CountBatch(nil) != nil {
		t.Error("empty batch should return nil")
	}
	if dt.ReportBatch(nil) != nil {
		t.Error("empty report batch should return nil")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 100, 2)
	boxes := randomBoxes(rng, 30, 100, 2)
	run := func() []int64 {
		mach := cgm.New(cgm.Config{P: 4})
		dt := Build(mach, pts)
		return dt.CountBatch(boxes)
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("results differ across identical runs")
	}
}

func TestBuildValidation(t *testing.T) {
	mach := cgm.New(cgm.Config{P: 2})
	for name, pts := range map[string][]geom.Point{
		"empty": nil,
		"ragged": {
			{ID: 0, X: []geom.Coord{1, 2}},
			{ID: 1, X: []geom.Coord{3}},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Build(mach, pts)
		}()
	}
}

func TestQueryDimMismatchAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dt, _, _ := buildBoth(rng, 32, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected abort on query dim mismatch")
		}
	}()
	dt.CountBatch([]geom.Box{geom.NewBox([]geom.Coord{1}, []geom.Coord{5})})
}

// TestAbortedRunUnpinsKeptFrame: a machine abort panics out of MixedBatch
// past the frame's normal exit; the tree's kept frame must not go on
// holding that batch.
func TestAbortedRunUnpinsKeptFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dt, _, _ := buildBoth(rng, 32, 2, 2)
	// Parts that lost their elements fail the report's reads inside the
	// run (a wrong-dims box would not do: MixedBatch refuses it before the
	// run starts).
	for _, ps := range dt.procs {
		clear(ps.part.elems)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected a machine abort on the emptied parts")
			}
		}()
		MixedBatch[struct{}](dt, nil, []MixedOp{OpReport},
			[]geom.Box{geom.NewBox([]geom.Coord{-1 << 20, -1 << 20}, []geom.Coord{1 << 20, 1 << 20})})
	}()
	fr := dt.frame.(*mixedFrame[struct{}])
	if fr.boxes != nil || fr.results != nil || fr.ops != nil || fr.h != nil {
		t.Errorf("the kept frame still holds the aborted batch: boxes %v, results %v, ops %v, handle %v",
			fr.boxes, fr.results, fr.ops, fr.h)
	}
	for rank, pairs := range fr.rep.perProc {
		if pairs != nil {
			t.Errorf("the kept frame still holds rank %d's pair block", rank)
		}
	}
}

func TestSkewedDemandGetsCopies(t *testing.T) {
	// Every query targets the same narrow column: one forest group is
	// congested and must be replicated (the c_j mechanism).
	rng := rand.New(rand.NewSource(25))
	n, p := 512, 8
	dt, bf, pts := buildBoth(rng, n, 2, p)
	// A box around a single point, repeated n times: all subqueries hit
	// the same primary element.
	target := pts[rng.Intn(n)]
	boxes := make([]geom.Box, n)
	for i := range boxes {
		boxes[i] = geom.NewBox(
			[]geom.Coord{target.X[0] - 1, 1},
			[]geom.Coord{target.X[0] + 1, geom.Coord(n)},
		)
	}
	got := dt.CountBatch(boxes)
	want := int64(bf.Count(boxes[0]))
	for i := range got {
		if got[i] != want {
			t.Fatalf("query %d: %d vs %d", i, got[i], want)
		}
	}
	st := dt.LastSearchStats()
	totalServed, maxServed, totalSubs := 0, 0, 0
	for _, s := range st {
		totalServed += s.Served
		totalSubs += s.Subqueries
		if s.Served > maxServed {
			maxServed = s.Served
		}
	}
	if totalServed != totalSubs {
		t.Fatalf("served %d != subqueries %d", totalServed, totalSubs)
	}
	if totalSubs == 0 {
		t.Skip("workload produced no subqueries")
	}
	// Balance: no processor serves more than ~2/p of the demand + slack.
	if maxServed > 2*totalSubs/p+2 {
		t.Errorf("congested: max served %d of %d on p=%d", maxServed, totalSubs, p)
	}
}

func TestReportBalance(t *testing.T) {
	// Theorem 4: every processor materializes O(k/p) pairs.
	rng := rand.New(rand.NewSource(27))
	n, p := 512, 8
	dt, bf, _ := buildBoth(rng, n, 2, p)
	boxes := randomBoxes(rng, 64, n, 2)
	results, perProc := dt.ReportBatchBalance(boxes)
	k := 0
	for i, b := range boxes {
		k += len(results[i])
		if len(results[i]) != bf.Count(b) {
			t.Fatalf("query %d wrong size", i)
		}
	}
	if k == 0 {
		t.Skip("no results")
	}
	mx := 0
	for _, c := range perProc {
		if c > mx {
			mx = c
		}
	}
	if mx > k/p+k/8+2 { // k/p plus generous rounding slack
		t.Errorf("report imbalance: max %d of k=%d on p=%d (%v)", mx, k, p, perProc)
	}
}

func TestCopiesBounded(t *testing.T) {
	// The balancing lemma: each processor hosts O(1) copies of any group,
	// i.e. total copied elements ≤ 2 × the biggest part.
	rng := rand.New(rand.NewSource(29))
	n, p := 256, 4
	dt, _, _ := buildBoth(rng, n, 2, p)
	boxes := randomBoxes(rng, 256, n, 2)
	dt.CountBatch(boxes)
	maxOwned := 0
	for _, ps := range dt.procs {
		if len(ps.part.elems) > maxOwned {
			maxOwned = len(ps.part.elems)
		}
	}
	for rank, s := range dt.LastSearchStats() {
		if s.CopiesHeld > 2*maxOwned {
			t.Errorf("processor %d holds %d copies (max part %d)", rank, s.CopiesHeld, maxOwned)
		}
	}
}

func TestHatReplicasIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dt, _, _ := buildBoth(rng, 128, 2, 4)
	ref := dt.procs[0]
	for rank := 1; rank < 4; rank++ {
		ps := dt.procs[rank]
		if len(ps.hat) != len(ref.hat) {
			t.Fatalf("replica %d has %d hat trees, want %d", rank, len(ps.hat), len(ref.hat))
		}
		for i := range ps.hat {
			a, b := ps.hat[i], ref.hat[i]
			if a.Key != b.Key || a.Dim != b.Dim || a.Shape != b.Shape {
				t.Fatalf("replica %d tree %d header differs", rank, i)
			}
			if !reflect.DeepEqual(a.nodes, b.nodes) || !reflect.DeepEqual(a.present, b.present) {
				t.Fatalf("replica %d tree %d nodes differ", rank, i)
			}
		}
		if !reflect.DeepEqual(ps.info, ref.info) {
			t.Fatalf("replica %d element info differs", rank)
		}
	}
}

func TestForestPartitionCoversPoints(t *testing.T) {
	// The dimension-0 elements partition the input: their counts sum to n
	// and every point appears exactly once.
	rng := rand.New(rand.NewSource(33))
	n := 200
	dt, _, _ := buildBoth(rng, n, 3, 4)
	seen := map[int32]int{}
	total := 0
	for _, ps := range dt.procs {
		for _, el := range ps.part.elems {
			if el.info.Dim != 0 {
				continue
			}
			total += el.tree.Points().Len()
			for _, id := range el.tree.Points().IDs {
				seen[id]++
			}
		}
	}
	if total != n {
		t.Errorf("dim-0 forest covers %d points, want %d", total, n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("point %d appears %d times", id, c)
		}
	}
}

func TestOwnersMatchInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	dt, _, _ := buildBoth(rng, 100, 2, 4)
	for rank, ps := range dt.procs {
		for id, el := range ps.part.elems {
			if int(el.info.Owner) != rank {
				t.Fatalf("element %d stored at %d but owned by %d", id, rank, el.info.Owner)
			}
			if dt.Info()[int(id)].Owner != el.info.Owner {
				t.Fatalf("element %d info inconsistent", id)
			}
		}
	}
}

// TestDuplicateCoordinates drops the rank-normalization precondition:
// heavy coordinate duplication must still produce exact results (ordering
// falls back to point IDs everywhere).
func TestDuplicateCoordinates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		d := 1 + rng.Intn(3)
		p := 1 + rng.Intn(6)
		pts := make([]geom.Point, n)
		for i := range pts {
			x := make([]geom.Coord, d)
			for j := range x {
				x[j] = geom.Coord(rng.Intn(5)) // 5 distinct values only
			}
			pts[i] = geom.Point{ID: int32(i), X: x}
		}
		mach := cgm.New(cgm.Config{P: p})
		dt := Build(mach, pts)
		if dt.Verify() != nil {
			return false
		}
		bf := brute.New(pts)
		for q := 0; q < 10; q++ {
			lo := make([]geom.Coord, d)
			hi := make([]geom.Coord, d)
			for j := 0; j < d; j++ {
				a, b := geom.Coord(rng.Intn(6)), geom.Coord(rng.Intn(6))
				if a > b {
					a, b = b, a
				}
				lo[j], hi[j] = a, b
			}
			box := geom.Box{Lo: lo, Hi: hi}
			if dt.CountBatch([]geom.Box{box})[0] != int64(bf.Count(box)) {
				return false
			}
			if !reflect.DeepEqual(brute.IDs(dt.ReportBatch([]geom.Box{box})[0]), brute.IDs(bf.Report(box))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMeasuredModeBuildAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := randomPoints(rng, 128, 2)
	mach := cgm.New(cgm.Config{P: 4, Mode: cgm.Measured})
	dt := Build(mach, pts)
	bf := brute.New(pts)
	boxes := randomBoxes(rng, 32, 128, 2)
	got := dt.CountBatch(boxes)
	for i, b := range boxes {
		if got[i] != int64(bf.Count(b)) {
			t.Fatalf("measured mode query %d wrong", i)
		}
	}
	if mach.Metrics().TotalWork() <= 0 {
		t.Error("measured mode recorded no work")
	}
}
