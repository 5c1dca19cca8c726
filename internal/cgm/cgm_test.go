package cgm

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunAllProcsExecute(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Measured} {
		m := New(Config{P: 5, Mode: mode})
		var ran int64
		m.Run(func(pr *Proc) {
			atomic.AddInt64(&ran, 1)
			if pr.P() != 5 {
				t.Error("P wrong")
			}
		})
		if ran != 5 {
			t.Fatalf("mode %v: ran = %d", mode, ran)
		}
	}
}

func TestRanksDistinct(t *testing.T) {
	m := New(Config{P: 8})
	seen := make([]int64, 8)
	m.Run(func(pr *Proc) { atomic.AddInt64(&seen[pr.Rank()], 1) })
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("rank %d executed %d times", r, c)
		}
	}
}

func TestExchangeTransposes(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Measured} {
		m := New(Config{P: 4, Mode: mode})
		var results [4][][]int
		m.Run(func(pr *Proc) {
			out := make([][]int, 4)
			for j := 0; j < 4; j++ {
				out[j] = []int{pr.Rank()*10 + j}
			}
			results[pr.Rank()] = Exchange(pr, "transpose", out)
		})
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				// in[j] at proc i must be what proc j addressed to i.
				want := j*10 + i
				if got := results[i][j][0]; got != want {
					t.Fatalf("mode %v proc %d from %d: got %d want %d", mode, i, j, got, want)
				}
			}
		}
	}
}

func TestMultipleRoundsAndMetrics(t *testing.T) {
	m := New(Config{P: 3})
	m.Run(func(pr *Proc) {
		for r := 0; r < 4; r++ {
			out := make([][]byte, 3)
			for j := 0; j < 3; j++ {
				out[j] = make([]byte, 2) // each proc sends 6, receives 6
			}
			Exchange(pr, "r", out)
		}
	})
	mt := m.Metrics()
	if mt.CommRounds() != 4 {
		t.Errorf("CommRounds = %d, want 4", mt.CommRounds())
	}
	if mt.MaxH() != 6 {
		t.Errorf("MaxH = %d, want 6", mt.MaxH())
	}
	if mt.TotalComm() != 4*3*6 {
		t.Errorf("TotalComm = %d, want 72", mt.TotalComm())
	}
	if mt.Runs != 1 {
		t.Errorf("Runs = %d", mt.Runs)
	}
	// The final pseudo-round exists and carries no h.
	last := mt.Rounds[len(mt.Rounds)-1]
	if !last.Final || last.MaxH != 0 {
		t.Errorf("final round wrong: %+v", last)
	}
}

func TestMetricsAccumulateAndReset(t *testing.T) {
	m := New(Config{P: 2})
	run := func() {
		m.Run(func(pr *Proc) { Barrier(pr, "b") })
	}
	run()
	run()
	if got := m.Metrics().CommRounds(); got != 2 {
		t.Errorf("accumulated rounds = %d, want 2", got)
	}
	m.ResetMetrics()
	if got := m.Metrics().CommRounds(); got != 0 {
		t.Errorf("rounds after reset = %d", got)
	}
}

func TestUnevenHAccounting(t *testing.T) {
	m := New(Config{P: 4})
	m.Run(func(pr *Proc) {
		out := make([][]int, 4)
		if pr.Rank() == 2 {
			out[0] = make([]int, 10) // proc 2 sends 10 to proc 0
		}
		Exchange(pr, "skew", out)
	})
	mt := m.Metrics()
	if mt.MaxH() != 10 {
		t.Errorf("MaxH = %d, want 10 (max of sent=10 at p2, recv=10 at p0)", mt.MaxH())
	}
	if mt.TotalComm() != 10 {
		t.Errorf("TotalComm = %d, want 10", mt.TotalComm())
	}
}

func TestSPMDLabelViolationAborts(t *testing.T) {
	m := New(Config{P: 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected machine abort")
		}
		if !strings.Contains(r.(string), "SPMD violation") {
			t.Fatalf("unexpected abort payload: %v", r)
		}
	}()
	m.Run(func(pr *Proc) {
		label := "a"
		if pr.Rank() == 1 {
			label = "b"
		}
		Barrier(pr, label)
	})
}

func TestUserPanicPropagates(t *testing.T) {
	m := New(Config{P: 3, Mode: Measured})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected abort from user panic")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("cause lost: %v", r)
		}
	}()
	m.Run(func(pr *Proc) {
		if pr.Rank() == 1 {
			panic("boom")
		}
		// Other processors park at a collective; the abort must free them
		// rather than deadlock.
		Barrier(pr, "park")
	})
}

func TestWrongDestCountPanics(t *testing.T) {
	m := New(Config{P: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected abort")
		}
	}()
	m.Run(func(pr *Proc) {
		Exchange(pr, "bad", make([][]int, 3)) // 3 destinations on a 2-proc machine
	})
}

func TestSingleProcMachine(t *testing.T) {
	m := New(Config{P: 1})
	m.Run(func(pr *Proc) {
		in := Exchange(pr, "self", [][]string{{"x"}})
		if len(in) != 1 || in[0][0] != "x" {
			t.Error("self-exchange wrong")
		}
	})
	if m.Metrics().CommRounds() != 1 {
		t.Error("round not counted on P=1")
	}
}

func TestMeasuredModeWorkAccounting(t *testing.T) {
	m := New(Config{P: 4, Mode: Measured})
	var sink int64
	m.Run(func(pr *Proc) {
		// Unequal local work: proc 3 does the most.
		x := 0
		for i := 0; i < (pr.Rank()+1)*500000; i++ {
			x += i ^ (i >> 3)
		}
		atomic.AddInt64(&sink, int64(x))
		Barrier(pr, "sync")
	})
	_ = atomic.LoadInt64(&sink)
	mt := m.Metrics()
	if mt.WorkByProc[3] <= mt.WorkByProc[0] {
		t.Errorf("measured work not ordered: p0=%v p3=%v", mt.WorkByProc[0], mt.WorkByProc[3])
	}
	if mt.LocalWork() <= 0 || mt.TotalWork() < mt.MaxWorkByProc() {
		t.Error("work aggregates inconsistent")
	}
}

func TestModelTime(t *testing.T) {
	m := New(Config{P: 2})
	m.Run(func(pr *Proc) {
		out := make([][]int, 2)
		out[1-pr.Rank()] = make([]int, 5)
		Exchange(pr, "x", out)
	})
	mt := m.Metrics()
	// ModelTime ≥ g·h + L = 10*5 + 1000.
	if got := mt.ModelTime(10, 1000); got < 1050 {
		t.Errorf("ModelTime = %v, want ≥ 1050ns", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{P: 0})
}
