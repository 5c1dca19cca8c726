package comm

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/semigroup"
)

// TestScanRankOrder verifies the documented fold order with a
// non-commutative operation (string concatenation): Scan must fold values
// in processor-rank order.
func TestScanRankOrder(t *testing.T) {
	concat := semigroup.Monoid[string]{
		Identity: "",
		Combine:  func(a, b string) string { return a + b },
	}
	m := cgm.New(cgm.Config{P: 4})
	var prefixes [4]string
	var totals [4]string
	m.Run(func(pr *cgm.Proc) {
		v := string(rune('a' + pr.Rank()))
		pre, tot := Scan(pr, "order", concat, v)
		prefixes[pr.Rank()] = pre
		totals[pr.Rank()] = tot
	})
	want := [4]string{"", "a", "ab", "abc"}
	for i := range prefixes {
		if prefixes[i] != want[i] {
			t.Errorf("prefix at %d = %q, want %q", i, prefixes[i], want[i])
		}
		if totals[i] != "abcd" {
			t.Errorf("total at %d = %q", i, totals[i])
		}
	}
}

// TestAllGatherSliceAliasing: received slices alias the sender's memory in
// the shared-address-space simulator; receivers must treat them as
// read-only. This test documents (and pins) that sharing contract.
func TestAllGatherSliceAliasing(t *testing.T) {
	m := cgm.New(cgm.Config{P: 2})
	src := []int{42}
	m.Run(func(pr *cgm.Proc) {
		var local []int
		if pr.Rank() == 0 {
			local = src
		}
		got := AllGather(pr, "alias", local)
		if len(got[0]) != 1 || got[0][0] != 42 {
			t.Error("gather content wrong")
		}
	})
	if src[0] != 42 {
		t.Error("source mutated")
	}
}

func TestBroadcastEmptyPayload(t *testing.T) {
	m := cgm.New(cgm.Config{P: 3})
	m.Run(func(pr *cgm.Proc) {
		got := broadcast(pr, "empty", 1, []string(nil))
		if len(got) != 0 {
			t.Errorf("empty broadcast delivered %v", got)
		}
	})
}

func TestSegmentedBroadcastSingleProcSegment(t *testing.T) {
	m := cgm.New(cgm.Config{P: 3})
	var got [3][]int
	m.Run(func(pr *cgm.Proc) {
		var items []SegItem[int]
		if pr.Rank() == 1 {
			items = []SegItem[int]{{Val: 5, DstLo: 1, DstHi: 1}}
		}
		got[pr.Rank()] = SegmentedBroadcast(pr, "one", items)
	})
	if len(got[0]) != 0 || len(got[2]) != 0 || len(got[1]) != 1 || got[1][0] != 5 {
		t.Errorf("single-proc segment wrong: %v", got)
	}
}
