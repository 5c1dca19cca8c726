package comm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cgm"
	"repro/internal/semigroup"
)

func TestAllGather(t *testing.T) {
	m := cgm.New(cgm.Config{P: 4})
	var got [4][][]int
	m.Run(func(pr *cgm.Proc) {
		got[pr.Rank()] = AllGather(pr, "ag", []int{pr.Rank(), pr.Rank() * 2})
	})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := []int{j, j * 2}
			if !reflect.DeepEqual(got[i][j], want) {
				t.Fatalf("proc %d src %d: %v want %v", i, j, got[i][j], want)
			}
		}
	}
}

func TestAllGatherFlatOrder(t *testing.T) {
	m := cgm.New(cgm.Config{P: 3})
	var got [3][]int
	m.Run(func(pr *cgm.Proc) {
		got[pr.Rank()] = AllGatherFlat(pr, "agf", []int{pr.Rank()})
	})
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(got[i], []int{0, 1, 2}) {
			t.Fatalf("proc %d: %v", i, got[i])
		}
	}
}

// broadcast sends root's data to every rank: a segmented broadcast whose
// one segment is the whole machine.
func broadcast[T any](pr *cgm.Proc, label string, root int, data []T) []T {
	var items []SegItem[T]
	if pr.Rank() == root {
		for _, v := range data {
			items = append(items, SegItem[T]{Val: v, DstLo: 0, DstHi: pr.P() - 1})
		}
	}
	return SegmentedBroadcast(pr, label, items)
}

func TestBroadcast(t *testing.T) {
	m := cgm.New(cgm.Config{P: 5})
	var got [5][]string
	m.Run(func(pr *cgm.Proc) {
		var data []string
		if pr.Rank() == 2 {
			data = []string{"hello", "world"}
		}
		got[pr.Rank()] = broadcast(pr, "bc", 2, data)
	})
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(got[i], []string{"hello", "world"}) {
			t.Fatalf("proc %d: %v", i, got[i])
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	m := cgm.New(cgm.Config{P: 4})
	var back [4][]int
	m.Run(func(pr *cgm.Proc) {
		mine := []int{pr.Rank() * 100}
		at0 := Gather(pr, "g", 0, mine)
		if pr.Rank() == 0 {
			if len(at0) != 4 || at0[3][0] != 300 {
				t.Error("gather at root wrong")
			}
		} else if at0 != nil {
			t.Error("non-root must receive nil")
		}
		// Root scatters back doubled values, each addressed to its rank.
		var items []int
		if pr.Rank() == 0 {
			for j := range at0 {
				items = append(items, at0[j][0]*2)
			}
		}
		back[pr.Rank()] = SegmentedGather(pr, "s", items, func(v int) int { return v / 200 })
	})
	for i := 0; i < 4; i++ {
		if back[i][0] != i*200 {
			t.Fatalf("proc %d got %v", i, back[i])
		}
	}
}

// TestAllReduceAndScan: Scan's total is the all-reduce, the same on
// every rank; its prefix folds the ranks below.
func TestAllReduceAndScan(t *testing.T) {
	m := cgm.New(cgm.Config{P: 6})
	var totals [6]int64
	var prefixes [6]int64
	m.Run(func(pr *cgm.Proc) {
		v := int64(pr.Rank() + 1)
		prefixes[pr.Rank()], totals[pr.Rank()] = Scan(pr, "scan", semigroup.IntSum(), v)
	})
	for i := 0; i < 6; i++ {
		if totals[i] != 21 {
			t.Fatalf("allreduce at %d = %d", i, totals[i])
		}
		want := int64(i * (i + 1) / 2)
		if prefixes[i] != want {
			t.Fatalf("prefix at %d = %d, want %d", i, prefixes[i], want)
		}
	}
}

func TestCountScan(t *testing.T) {
	m := cgm.New(cgm.Config{P: 4})
	m.Run(func(pr *cgm.Proc) {
		off, tot := CountScan(pr, "cs", pr.Rank()) // lens 0,1,2,3
		wantOff := pr.Rank() * (pr.Rank() - 1) / 2
		if off != wantOff || tot != 6 {
			t.Errorf("proc %d: off=%d tot=%d", pr.Rank(), off, tot)
		}
	})
}

func TestSegmentedBroadcast(t *testing.T) {
	m := cgm.New(cgm.Config{P: 4})
	var got [4][]string
	m.Run(func(pr *cgm.Proc) {
		var items []SegItem[string]
		if pr.Rank() == 0 {
			items = []SegItem[string]{{Val: "a", DstLo: 0, DstHi: 2}}
		}
		if pr.Rank() == 3 {
			items = []SegItem[string]{{Val: "b", DstLo: 2, DstHi: 9}} // clamped to 3
		}
		got[pr.Rank()] = SegmentedBroadcast(pr, "sb", items)
	})
	want := [4][]string{{"a"}, {"a"}, {"a", "b"}, {"b"}}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("proc %d: %v want %v", i, got[i], want[i])
		}
	}
}

func TestSegmentedGather(t *testing.T) {
	m := cgm.New(cgm.Config{P: 3})
	var got [3][]int
	m.Run(func(pr *cgm.Proc) {
		items := []int{pr.Rank()*3 + 0, pr.Rank()*3 + 1, pr.Rank()*3 + 2}
		got[pr.Rank()] = SegmentedGather(pr, "sg", items, func(v int) int { return v % 3 })
	})
	// Destination d receives values ≡ d (mod 3), in source-rank order.
	for d := 0; d < 3; d++ {
		if len(got[d]) != 3 {
			t.Fatalf("dest %d: %v", d, got[d])
		}
		for _, v := range got[d] {
			if v%3 != d {
				t.Fatalf("dest %d received %d", d, v)
			}
		}
	}
}

func TestSegmentedGatherBadDest(t *testing.T) {
	m := cgm.New(cgm.Config{P: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected abort")
		}
	}()
	m.Run(func(pr *cgm.Proc) {
		SegmentedGather(pr, "bad", []int{7}, func(int) int { return 5 })
	})
}

func TestRebalanceEvensOut(t *testing.T) {
	m := cgm.New(cgm.Config{P: 4})
	var got [4][]int
	m.Run(func(pr *cgm.Proc) {
		// Heavily skewed: proc 0 has everything.
		var local []int
		if pr.Rank() == 0 {
			local = make([]int, 13)
			for i := range local {
				local[i] = i
			}
		}
		got[pr.Rank()] = Rebalance(pr, "rb", local)
	})
	var all []int
	for i := 0; i < 4; i++ {
		if len(got[i]) > 4 || len(got[i]) < 3 {
			t.Fatalf("proc %d holds %d of 13, want 3..4", i, len(got[i]))
		}
		all = append(all, got[i]...)
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("global order broken at %d: %v", i, all)
		}
	}
}

func TestRebalanceEmpty(t *testing.T) {
	m := cgm.New(cgm.Config{P: 3})
	m.Run(func(pr *cgm.Proc) {
		if got := Rebalance(pr, "rb0", []int(nil)); len(got) != 0 {
			t.Errorf("empty rebalance returned %v", got)
		}
	})
}

// TestBlockPartitionViews: for random runs — empty ones, p = 1, p larger
// than the run — the blocks concatenate back to the input, every item
// sits in the block blockOwner names, and each block's capacity ends at
// its length, so appending to block j cannot write into block j+1.
func TestBlockPartitionViews(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		p := 1 + rng.Intn(9)
		n := rng.Intn(3 * p)
		if trial%7 == 0 {
			n = 0
		}
		offset := rng.Intn(40)
		total := offset + n + rng.Intn(40)
		local := make([]int, n)
		for i := range local {
			local[i] = offset + i // each item is its global position
		}
		blocks := BlockPartition(local, offset, total, p)
		if len(blocks) != p {
			t.Fatalf("p=%d: %d blocks", p, len(blocks))
		}
		var flat []int
		for j, b := range blocks {
			if cap(b) != len(b) {
				t.Fatalf("p=%d n=%d offset=%d total=%d: block %d has len %d cap %d", p, n, offset, total, j, len(b), cap(b))
			}
			for _, g := range b {
				if owner := blockOwner(g, total, p); owner != j {
					t.Fatalf("p=%d total=%d: position %d in block %d, blockOwner says %d", p, total, g, j, owner)
				}
			}
			flat = append(flat, b...)
		}
		if !slices.Equal(flat, local) {
			t.Fatalf("p=%d n=%d offset=%d total=%d: blocks concatenate to %v, want %v", p, n, offset, total, flat, local)
		}
		for _, b := range blocks { // an append past a block leaves the input alone
			_ = append(b, -1)
		}
		if !slices.Equal(flat, local) {
			t.Fatalf("appends to the blocks changed the input: %v", local)
		}
	}
}

// blockOwner maps global position g of n items onto one of p contiguous
// blocks (sizes differing by at most one): the oracle BlockPartition's
// cuts are checked against.
func blockOwner(g, n, p int) int {
	if n == 0 {
		return 0
	}
	j := g * p / n // within one block of the answer; adjust exactly
	if j > p-1 {
		j = p - 1
	}
	for j > 0 && g < blockStart(j, n, p) {
		j--
	}
	for j < p-1 && g >= blockStart(j+1, n, p) {
		j++
	}
	return j
}

func TestBlockOwnerExhaustive(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for p := 1; p <= 7; p++ {
			for g := 0; g < n; g++ {
				j := blockOwner(g, n, p)
				if g < blockStart(j, n, p) || (j < p-1 && g >= blockStart(j+1, n, p)) {
					t.Fatalf("blockOwner(%d,%d,%d) = %d", g, n, p, j)
				}
			}
		}
	}
}
