package segtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapePadding(t *testing.T) {
	cases := []struct{ m, cap int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {1000, 1024},
	}
	for _, c := range cases {
		if s := NewShape(c.m); s.Cap != c.cap {
			t.Errorf("NewShape(%d).Cap = %d, want %d", c.m, s.Cap, c.cap)
		}
	}
}

func TestLevelDepth(t *testing.T) {
	s := NewShape(8)
	if s.Height() != 3 {
		t.Fatalf("Height = %d", s.Height())
	}
	if s.Level(1) != 3 || s.Level(2) != 2 || s.Level(8) != 0 || s.Level(15) != 0 {
		t.Error("Level wrong")
	}
	if Depth(1) != 0 || Depth(2) != 1 || Depth(3) != 1 || Depth(15) != 3 {
		t.Error("Depth wrong")
	}
}

func TestPosRangeAndCount(t *testing.T) {
	s := NewShape(6) // Cap 8
	lo, hi := s.PosRange(1)
	if lo != 0 || hi != 8 {
		t.Errorf("root PosRange = [%d,%d)", lo, hi)
	}
	lo, hi = s.PosRange(3) // right half
	if lo != 4 || hi != 8 {
		t.Errorf("node 3 PosRange = [%d,%d)", lo, hi)
	}
	if s.Count(1) != 6 {
		t.Errorf("root Count = %d", s.Count(1))
	}
	if s.Count(3) != 2 { // positions 4,5 real; 6,7 padding
		t.Errorf("node 3 Count = %d", s.Count(3))
	}
	if s.Count(7) != 0 { // positions 6,7 all padding
		t.Errorf("node 7 Count = %d", s.Count(7))
	}
	if s.Count(s.LeafNode(5)) != 1 || s.Count(s.LeafNode(6)) != 0 {
		t.Error("leaf counts wrong")
	}
}

func TestParentChildRelations(t *testing.T) {
	for v := 1; v < 64; v++ {
		if Parent(Left(v)) != v || Parent(Right(v)) != v {
			t.Fatalf("parent/child inconsistent at %d", v)
		}
	}
}

// TestCoverExactPartition is the core canonical-decomposition invariant:
// Cover([lo,hi)) yields disjoint nodes whose leaf ranges exactly tile the
// interval, in left-to-right order, with at most 2 nodes per level.
// coverNodes returns the canonical cover of [lo, hi) as a slice.
func coverNodes(s Shape, lo, hi int) []int {
	var out []int
	s.Cover(lo, hi, func(v int) { out = append(out, v) })
	return out
}

func TestCoverExactPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(300)
		s := NewShape(m)
		lo := rng.Intn(m + 2)
		hi := rng.Intn(m + 2)
		nodes := coverNodes(s, lo, hi)
		clampedLo, clampedHi := lo, hi
		if clampedHi > s.Cap {
			clampedHi = s.Cap
		}
		if clampedLo >= clampedHi {
			return len(nodes) == 0
		}
		perLevel := map[int]int{}
		pos := clampedLo
		for _, v := range nodes {
			a, b := s.PosRange(v)
			if a != pos { // contiguous, ordered, disjoint
				return false
			}
			pos = b
			perLevel[s.Level(v)]++
		}
		if pos != clampedHi {
			return false
		}
		for _, c := range perLevel {
			if c > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCoverMaximality: no two siblings both appear (they would have been
// replaced by their parent).
func TestCoverMaximality(t *testing.T) {
	s := NewShape(64)
	for lo := 0; lo <= 64; lo += 3 {
		for hi := lo; hi <= 64; hi += 5 {
			nodes := coverNodes(s, lo, hi)
			in := map[int]bool{}
			for _, v := range nodes {
				in[v] = true
			}
			for _, v := range nodes {
				sib := v ^ 1
				if v > 1 && in[sib] {
					t.Fatalf("cover of [%d,%d) contains siblings %d and %d", lo, hi, v, sib)
				}
			}
		}
	}
}

func TestCoverFullRange(t *testing.T) {
	s := NewShape(16)
	nodes := coverNodes(s, 0, 16)
	if len(nodes) != 1 || nodes[0] != 1 {
		t.Errorf("full cover = %v, want [1]", nodes)
	}
}

func TestStubsPartitionRealLeaves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(500)
		grain := 1 + rng.Intn(64)
		s := NewShape(m)
		stubs := s.Stubs(grain)
		pos := 0
		for _, st := range stubs {
			if st.PosLo != pos || st.Count != st.PosHi-st.PosLo || st.Count < 1 || st.Count > grain {
				return false
			}
			// Maximality: the parent must be hat-internal (or stub is root).
			if st.Node != 1 && s.Count(Parent(st.Node)) <= grain {
				return false
			}
			if st.Level_ != s.Level(st.Node) {
				return false
			}
			pos = st.PosHi
		}
		return pos == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStubsPowerOfTwoMatchesPaper: with n and p powers of two and grain
// n/p, the stubs are exactly the p nodes at level log n − log p
// (Definition 3 / footnote 1).
func TestStubsPowerOfTwoMatchesPaper(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		for _, p := range []int{2, 4, 8} {
			s := NewShape(n)
			stubs := s.Stubs(n / p)
			if len(stubs) != p {
				t.Fatalf("n=%d p=%d: %d stubs, want p", n, p, len(stubs))
			}
			wantLevel := Log2(n) - Log2(p)
			for _, st := range stubs {
				if st.Level_ != wantLevel || st.Count != n/p {
					t.Fatalf("n=%d p=%d stub %+v, want level %d count %d", n, p, st, wantLevel, n/p)
				}
			}
		}
	}
}

func TestHatNodesCountPowerOfTwo(t *testing.T) {
	// With n, p powers of two, the hat-internal nodes are the top log p
	// levels: 2p − 1 − p = p − 1 internal nodes... precisely nodes with
	// c > n/p are those at levels > log n − log p: count 2^0+..+2^(log p -1)
	// = p − 1.
	s := NewShape(256)
	for _, p := range []int{2, 8, 32} {
		hat := 0
		for v := 1; v < 2*s.Cap; v++ {
			if s.Count(v) > 256/p {
				hat++
			}
		}
		if hat != p-1 {
			t.Errorf("p=%d: %d hat-internal nodes, want %d", p, hat, p-1)
		}
	}
}

func TestStubContaining(t *testing.T) {
	s := NewShape(100)
	stubs := s.Stubs(7)
	for pos := 0; pos < 100; pos++ {
		i := StubContaining(stubs, pos)
		if i >= len(stubs) || stubs[i].PosLo > pos || pos >= stubs[i].PosHi {
			t.Fatalf("StubContaining(%d) = %d (%+v)", pos, i, stubs[i])
		}
	}
}

func TestStubsGrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for grain 0")
		}
	}()
	NewShape(4).Stubs(0)
}

func TestFigSegments(t *testing.T) {
	// Figure 1: the segment tree for (1,8).
	s := NewShape(8)
	want := map[int]string{
		1:  "[1,8]",
		2:  "[1,5)",
		3:  "[5,8]",
		4:  "[1,3)",
		5:  "[3,5)",
		6:  "[5,7)",
		7:  "[7,8]",
		8:  "[1,2)",
		9:  "[2,3)",
		10: "[3,4)",
		11: "[4,5)",
		12: "[5,6)",
		13: "[6,7)",
		14: "[7,8)",
		15: "[8,8]",
	}
	for v, w := range want {
		if got := s.FigSegmentString(v); got != w {
			t.Errorf("node %d segment = %s, want %s", v, got, w)
		}
	}
}
