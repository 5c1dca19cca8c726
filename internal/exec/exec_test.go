package exec

import (
	"strings"
	"testing"
)

// testState is the per-rank state of the test program.
type testState struct {
	rank, p int
	held    []int
}

func init() {
	Register(&Program{
		Name:    "exec-test",
		Version: 3,
		New:     func(rank, p int) any { return &testState{rank: rank, p: p} },
		Steps: map[string]Step{
			"keep": Pure(func(st *testState, _ *Ctx, args []int) (int, error) {
				st.held = append(st.held, args...)
				return len(st.held), nil
			}),
			"boom": Pure(func(st *testState, _ *Ctx, _ bool) (int, error) {
				panic("step exploded")
			}),
		},
		Emits: map[string]Emit{
			"fan": Emitter(func(st *testState, c *Ctx, base int) ([][]int, error) {
				rows := make([][]int, c.P)
				for j := range rows {
					rows[j] = []int{base + c.Rank*10 + j}
				}
				return rows, nil
			}),
		},
		Collects: map[string]Collect{
			"sum": Collector(func(st *testState, c *Ctx, _ bool, in [][]int) (int, error) {
				total := 0
				for _, part := range in {
					for _, v := range part {
						total += v
					}
				}
				return total, nil
			}),
		},
	})
}

func ref(step string) Ref { return Ref{Program: "exec-test", Version: 3, Step: step} }

func TestStateCreatedOncePerRank(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 3; i++ {
		b, err := s.Call(2, 4, ref("keep"), Marshal([]int{i}))
		if err != nil {
			t.Fatal(err)
		}
		n, err := Unmarshal[int](b)
		if err != nil {
			t.Fatal(err)
		}
		if n != i {
			t.Fatalf("call %d saw %d held values; state not persistent", i, n)
		}
	}
}

func TestVersionSkewRejected(t *testing.T) {
	s := NewStore()
	_, err := s.Call(0, 1, Ref{Program: "exec-test", Version: 2, Step: "keep"}, Marshal([]int{1}))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew not rejected: %v", err)
	}
	_, err = s.Call(0, 1, Ref{Program: "missing", Version: 1, Step: "keep"}, nil)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unknown program not rejected: %v", err)
	}
}

func TestStepPanicBecomesError(t *testing.T) {
	s := NewStore()
	_, err := s.Call(0, 1, ref("boom"), Marshal(false))
	if err == nil || !strings.Contains(err.Error(), "step exploded") {
		t.Fatalf("panic not converted to diagnostic error: %v", err)
	}
}

func TestEmitCollectRoundTrip(t *testing.T) {
	s := NewStore()
	p := 3
	// Emit on every rank, then assemble each rank's column and collect.
	outs := make([]*Outbox, p)
	for r := 0; r < p; r++ {
		out, err := s.RunEmit(r, p, ref("fan"), Marshal(100))
		if err != nil {
			t.Fatal(err)
		}
		if out.Type != "int" {
			t.Fatalf("emit typed %q", out.Type)
		}
		for j, c := range out.Counts {
			if c != 1 {
				t.Fatalf("rank %d dest %d count %d", r, j, c)
			}
		}
		if out.Blocks[r] != nil {
			t.Fatalf("self block of rank %d was encoded", r)
		}
		outs[r] = out
	}
	for r := 0; r < p; r++ {
		col := make([][]byte, p)
		for j := 0; j < p; j++ {
			if j != r {
				col[j] = outs[j].Blocks[r]
			}
		}
		reply, recv, err := s.RunCollect(r, p, ref("sum"), &Inbox{Blocks: col, Self: outs[r].Self}, Marshal(false))
		if err != nil {
			t.Fatal(err)
		}
		if recv != p {
			t.Fatalf("rank %d received %d elements, want %d", r, recv, p)
		}
		total, err := Unmarshal[int](reply)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for j := 0; j < p; j++ {
			want += 100 + j*10 + r
		}
		if total != want {
			t.Fatalf("rank %d collected %d, want %d", r, total, want)
		}
	}
}
