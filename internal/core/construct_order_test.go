package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/segtree"
	"repro/internal/workload"
)

// TestSortRecsMatchesSrecLess: the keyed local sort orders construct-shaped
// records exactly as a stable sort under srecLess does — heavy coordinate
// ties, negative and extreme coordinates and IDs (the sign-bit flip),
// several tree ordinals and permuted IDs, in every dimension. The lengths
// straddle the radix kernel's small-input cutoff (384 keys, below which it
// runs pdqsort): the lengths around it, then draws alternately below and
// above it.
func TestSortRecsMatchesSrecLess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coords := []geom.Coord{math.MinInt32, -3, -2, -1, 0, 1, 2, 3, math.MaxInt32}
	lengths := []int{1, 383, 384, 385}
	for trial := 0; trial < 20; trial++ {
		lengths = append(lengths, 1+rng.Intn(383), 384+rng.Intn(3000))
	}
	for trial, n := range lengths {
		ids := rng.Perm(n)
		recs := make([]srec, n)
		for i := range recs {
			x := make([]geom.Coord, 3)
			for k := range x {
				x[k] = coords[rng.Intn(len(coords))]
			}
			id := int32(ids[i] - n/2)
			if i%97 == 0 {
				id = math.MinInt32 + id // IDs at both ends of the range
			}
			recs[i] = srec{Ord: uint32(rng.Intn(5)) * 1000, Pt: geom.Point{ID: id, X: x}}
		}
		for j := 0; j < 3; j++ {
			want := slices.Clone(recs)
			sort.SliceStable(want, func(a, b int) bool { return srecLess(j)(want[a], want[b]) })
			got := slices.Clone(recs)
			sortRecs(got, j, nil)
			same := slices.EqualFunc(got, want, func(a, b srec) bool { return a.Ord == b.Ord && a.Pt.ID == b.Pt.ID })
			if !same {
				t.Fatalf("trial %d (n=%d) j=%d: sortRecs differs from a stable sort under srecLess", trial, n, j)
			}
		}
	}
}

// TestTreeOrdinalsFollowKeyOrder: the key table numbers the next phase's
// trees in PathKey byte order. A varint heap index of 128 or more takes two
// bytes, whose first sorts by its low seven bits, so byte order is not heap
// order there: 256 ([0x80 0x02]) sorts before 129 ([0x81 0x01]).
// TestConstructGolden never builds a hat that deep (that takes p > 128),
// so a table numbered in heap order would pass it; this test would not.
// The records step 7 emits under the table, once sorted, name the trees in
// the same order.
func TestTreeOrdinalsFollowKeyOrder(t *testing.T) {
	stubs := []int{258, 259, 512, 700, 1023}
	shape := segtree.NewShape(1 << 10)
	ht := newHatTree(0, segtree.RootPathKey, 0, shape, 1024)
	part := newForestPart()
	internal := map[int]bool{}
	for i, st := range stubs {
		ht.setNode(st, HatNode{Elem: ElemID(i), Desc: -1})
		for u := segtree.Parent(st); u >= 1; u = segtree.Parent(u) {
			internal[u] = true
			ht.setNode(u, HatNode{Elem: -1, Desc: -1})
		}
		info := ElemInfo{ID: ElemID(i), Dim: 0, Key: segtree.RootPathKey.Extend(st)}
		pts := geom.Block{Dims: 2, IDs: []int32{int32(2 * i), int32(2*i + 1)}, Coords: []geom.Coord{1, 5, 2, -5}}
		part.elems[info.ID] = &element{info: info, tree: layered.BuildFrom(pts, 0)}
	}
	other := newHatTree(1, segtree.RootPathKey.Extend(2), 1, shape, 4) // the next dimension's
	other.setNode(1, HatNode{Elem: -1, Desc: -1})

	keys := nextTreeKeys([]*HatTree{ht, other}, 0)
	if len(keys) != len(internal) {
		t.Fatalf("%d keys for %d hat-internal nodes: %v", len(keys), len(internal), keys)
	}
	if !slices.IsSortedFunc(keys, func(a, b segtree.PathKey) int { return strings.Compare(string(a), string(b)) }) {
		t.Fatalf("key table not in PathKey byte order: %v", keys)
	}
	at := func(v int) int {
		ord, ok := slices.BinarySearch(keys, segtree.RootPathKey.Extend(v))
		if !ok {
			t.Fatalf("node %d has no ordinal", v)
		}
		return int(ord)
	}
	if at(256) > at(129) {
		t.Fatalf("ordinal of node 256 (%d) after node 129's (%d): the table is in heap order", at(256), at(129))
	}

	recs, err := part.nextRecords(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	sortRecs(recs, 1, nil)
	trees, err := deriveTrees(keyRuns(recs), keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != len(keys) {
		t.Fatalf("%d trees from a %d-key table", len(trees), len(keys))
	}
	for i, ts := range trees {
		if ts.Key != keys[ts.Ord] || (i > 0 && ts.Key <= trees[i-1].Key) {
			t.Fatalf("tree %d is %v (ordinal %d) after %v", i, ts.Key, ts.Ord, trees[max(i-1, 0)].Key)
		}
	}
}

// TestRouteRecordsRejectsBadTreeTables: routeRecords runs worker-side on
// a coordinator's tree table, and deriveTrees on gathered runs. A table
// the records outrun, or an ordinal the table does not hold, is an error
// — never an index panic.
func TestRouteRecordsRejectsBadTreeTables(t *testing.T) {
	pt := func(id int32) geom.Point { return geom.Point{ID: id, X: []geom.Coord{id}} }
	recs := []srec{{0, pt(1)}, {0, pt(2)}, {0, pt(3)}, {1, pt(4)}, {1, pt(5)}}
	keys := []segtree.PathKey{segtree.RootPathKey.Extend(1), segtree.RootPathKey.Extend(2)}
	trees, err := deriveTrees(keyRuns(recs), keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := routeRecords(recs, trees, 2, 0, 2); err != nil {
		t.Fatalf("a good table: %v", err)
	}
	for name, tc := range map[string]struct {
		recs  []srec
		trees []treeSum
	}{
		"truncated table": {recs, trees[:1]},
		"no table":        {recs, nil},
		"foreign ordinal": {append(slices.Clone(recs[:3]), srec{7, pt(4)}, srec{7, pt(5)}), trees},
	} {
		if _, err := routeRecords(tc.recs, tc.trees, 2, 0, 2); err == nil {
			t.Errorf("%s: routed without an error", name)
		}
	}
	if _, err := routeRecords(recs, trees, 2, 1, 2); err == nil {
		t.Error("records past the last tree's leaves: routed without an error")
	}
	if _, err := deriveTrees([]runSum{{Ord: 0, Count: 3}, {Ord: 2, Count: 2}}, keys); err == nil {
		t.Error("deriveTrees took an ordinal outside the key table")
	}
	if _, err := deriveTrees([]runSum{{Ord: 1, Count: 3}, {Ord: 0, Count: 2}}, keys); err == nil {
		t.Error("deriveTrees took runs out of ordinal order")
	}
}

// The sort-scratch probe: a test-only step of the forest program that
// reads how many sort keys a resident part still holds.
func init() {
	forestProg.Steps["test/sortScratch"] = exec.Pure(func(part *forestPart, _ *exec.Ctx, _ bool) (int, error) {
		return cap(part.sortKeys), nil
	})
}

// TestBuildDropsSortScratch: the local sort's key scratch lives only as
// long as the build. After a BuildOn on loopback, fabric and resident, no
// forest part holds any: a built tree that kept it would carry 32 B per
// record of its largest phase for its whole life, and in-process workers
// count it in the heap.
func TestBuildDropsSortScratch(t *testing.T) {
	const p = 4
	pts := workload.Points(workload.PointSpec{N: 4096, Dims: 3, Dist: workload.Clustered, Seed: 3})
	for _, resident := range []bool{false, true} {
		tree, err := BuildOn(cgm.NewLocalProvider(cgm.Config{P: p, Resident: resident}), pts, BackendLayered)
		if err != nil {
			t.Fatal(err)
		}
		held := make([]int, p)
		tree.mach.Run(func(pr *cgm.Proc) {
			if resident {
				held[pr.Rank()] = cgm.CallResident[bool, int](pr, fref("test/sortScratch"), false)
			} else {
				held[pr.Rank()] = cap(tree.procs[pr.Rank()].part.sortKeys)
			}
		})
		for rank, keys := range held {
			if keys != 0 {
				t.Errorf("resident=%v: rank %d's forest part holds %d sort keys after the build", resident, rank, keys)
			}
		}
	}
}
