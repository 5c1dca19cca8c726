package balance

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPlanBasics(t *testing.T) {
	pl := NewPlan(4, []int{8, 0, 4, 4}, nil) // D = 16, D/p = 4
	if pl.DTotal != 16 {
		t.Fatalf("DTotal = %d", pl.DTotal)
	}
	if pl.Copies[0] != 2 { // ⌈8·4/16⌉ = 2
		t.Errorf("c_0 = %d, want 2", pl.Copies[0])
	}
	if pl.Copies[1] != 0 {
		t.Errorf("c_1 = %d, want 0", pl.Copies[1])
	}
	if pl.Copies[2] != 1 || pl.Copies[3] != 1 {
		t.Errorf("c_2/c_3 = %d/%d, want 1/1", pl.Copies[2], pl.Copies[3])
	}
	if pl.Slots != 4 {
		t.Errorf("Slots = %d", pl.Slots)
	}
}

func TestPlanInvariants(t *testing.T) {
	var reused *Plan
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(16)
		groups := p // the paper's group count
		demand := make([]int, groups)
		for j := range demand {
			if rng.Intn(3) > 0 {
				demand[j] = rng.Intn(200)
			}
		}
		// One plan recomputed in place across every case (whatever width
		// and demand came before) must equal a fresh one.
		reused = NewPlan(p, demand, reused)
		pl := NewPlan(p, demand, nil)
		if !reflect.DeepEqual(reused, pl) {
			return false
		}
		if pl.DTotal == 0 {
			return pl.Slots == 0
		}
		// Σ c_j ≤ 2p (each term ≤ d_j·p/D + 1).
		if pl.Slots > 2*p {
			return false
		}
		// O(1) copies per host.
		for _, c := range pl.CopiesPerHost() {
			if c > (pl.Slots+p-1)/p {
				return false
			}
		}
		// Every processor serves O(D/p): allow ⌈D/p⌉ + ⌈D/p⌉ slack for
		// rounding across groups hosted by the same processor.
		ceil := (pl.DTotal + p - 1) / p
		if pl.MaxServed() > 2*ceil+p {
			return false
		}
		// Routing hits only hosts of the right group.
		for j, d := range demand {
			if d == 0 {
				continue
			}
			hosts := map[int]bool{}
			for k := 0; k < pl.Copies[j]; k++ {
				hosts[pl.CopyHost(j, k)] = true
			}
			for r := 0; r < d; r++ {
				if !hosts[pl.Route(j, r)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPlanSingleHotGroup(t *testing.T) {
	// The congestion case that motivates the paper's copying: every query
	// wants group 0. It must get ~p copies and the load must spread.
	p := 8
	pl := NewPlan(p, []int{800, 0, 0, 0, 0, 0, 0, 0}, nil)
	if pl.Copies[0] != p {
		t.Fatalf("hot group got %d copies, want %d", pl.Copies[0], p)
	}
	if pl.MaxServed() > 100+1 {
		t.Fatalf("MaxServed = %d, want ≈ 100", pl.MaxServed())
	}
}

func TestRoutePanicsOnUndemanded(t *testing.T) {
	pl := NewPlan(2, []int{0, 5}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.Route(0, 0)
}

func TestSplitWeightedCoversExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		total := 1 + rng.Intn(500)
		off := rng.Intn(total)
		w := rng.Intn(total - off)
		shares := SplitWeighted(nil, off, w, total, p)
		if w == 0 {
			return len(shares) == 0
		}
		pos := 0
		prevProc := -1
		for _, sh := range shares {
			if sh.Lo != pos || sh.Hi <= sh.Lo || sh.Proc < 0 || sh.Proc >= p || sh.Proc <= prevProc {
				return false
			}
			// Every position in the share must belong to that processor's
			// block.
			for g := off + sh.Lo; g < off+sh.Hi; g++ {
				if ownerOf(g, total, p) != sh.Proc {
					return false
				}
			}
			pos = sh.Hi
			prevProc = sh.Proc
		}
		return pos == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitWeightedBalance(t *testing.T) {
	// Many unit entries: every processor receives ~total/p positions.
	p, total := 4, 1000
	perProc := make([]int, p)
	for off := 0; off < total; off++ {
		for _, sh := range SplitWeighted(nil, off, 1, total, p) {
			perProc[sh.Proc] += sh.Hi - sh.Lo
		}
	}
	for _, c := range perProc {
		if c != total/p {
			t.Fatalf("per-proc shares %v, want all %d", perProc, total/p)
		}
	}
}
