package cgm

import (
	"testing"

	"repro/internal/exec"
)

// rtState is the per-rank state of the cgm resident test program.
type rtState struct {
	got  [][]int // column of the last collect, by source
	kept int
}

func init() {
	exec.Register(&exec.Program{
		Name:    "cgm-test",
		Version: 1,
		New:     func(rank, p int) any { return &rtState{} },
		Steps: map[string]exec.Step{
			"sum": exec.Pure(func(st *rtState, c *exec.Ctx, _ struct{}) (int, error) {
				total := st.kept
				for _, part := range st.got {
					for _, v := range part {
						total += v
					}
				}
				return total, nil
			}),
		},
		Emits: map[string]exec.Emit{
			"fan": exec.Emitter(func(st *rtState, c *exec.Ctx, base int) ([][]int, error) {
				rows := make([][]int, c.P)
				for j := range rows {
					rows[j] = []int{base + c.Rank*10 + j}
				}
				return rows, nil
			}),
		},
		Collects: map[string]exec.Collect{
			"keep": exec.Collector(func(st *rtState, c *exec.Ctx, extra int, in [][]int) (int, error) {
				st.got = in
				st.kept += extra
				n := 0
				for _, part := range in {
					n += len(part)
				}
				return n, nil
			}),
		},
	})
}

func rtRef(step string) exec.Ref { return exec.Ref{Program: "cgm-test", Version: 1, Step: step} }

// TestResidentExchangeSteps: both endpoints resident; counts still match
// the equivalent fabric exchange.
func TestResidentExchangeSteps(t *testing.T) {
	p := 3
	res := New(Config{P: p, Resident: true})
	res.Run(func(pr *Proc) {
		n := ExchangeSteps[int, int, int](pr, "fan", rtRef("fan"), 100, rtRef("keep"), 0)
		if n != p {
			t.Errorf("rank %d collected %d elements, want %d", pr.rank, n, p)
		}
	})
	mt := res.Metrics()
	if mt.CommRounds() != 1 {
		t.Fatalf("resident exchange folded %d rounds, want 1", mt.CommRounds())
	}
	if mt.Rounds[0].MaxH != p || mt.Rounds[0].TotalElems != p*p {
		t.Fatalf("resident counts wrong: %+v", mt.Rounds[0])
	}
	res.Run(func(pr *Proc) {
		got := CallResident[struct{}, int](pr, rtRef("sum"), struct{}{})
		want := 0
		for j := 0; j < p; j++ {
			want += 100 + j*10 + pr.rank
		}
		if got != want {
			t.Errorf("rank %d sum %d want %d", pr.rank, got, want)
		}
	})
}

// TestResidentStepErrorAborts: a failing step aborts the machine with its
// diagnostic instead of deadlocking the other ranks.
func TestResidentStepErrorAborts(t *testing.T) {
	res := New(Config{P: 2, Resident: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the machine to abort")
		}
	}()
	res.Run(func(pr *Proc) {
		CallResident[struct{}, int](pr, exec.Ref{Program: "cgm-test", Version: 99, Step: "sum"}, struct{}{})
	})
}
