package cgm

import (
	"testing"
	"time"
)

// TestArenaValidUntilNextRun is the lifetime rule: what a run carved from
// its arena — here the column Exchange returns — is intact after the run
// and recycled only when the next run starts.
func TestArenaValidUntilNextRun(t *testing.T) {
	m := New(Config{P: 3})
	kept := make([][][]int, 3)
	transpose := func(pr *Proc) {
		out := Alloc[[]int](pr.Arena(), 3)
		for j := range out {
			out[j] = Alloc[int](pr.Arena(), 1)
			out[j][0] = 10*pr.Rank() + j
		}
		kept[pr.Rank()] = Exchange(pr, "transpose", out)
	}
	m.Run(transpose) // sizes the arenas
	m.Run(transpose)
	for i, in := range kept {
		for j, part := range in {
			if len(part) != 1 || part[0] != 10*j+i {
				t.Fatalf("rank %d from %d after the run: %v, want [%d]", i, j, part, 10*j+i)
			}
		}
	}
	before := &kept[0][0]
	m.Run(transpose)
	if &kept[0][0] != before {
		t.Errorf("the next run's column was not carved from the recycled arena")
	}
}

// TestArenaGrowthKeepsEarlierAllocations: outgrowing a chunk inside a run
// must never move or recycle what was already handed out.
func TestArenaGrowthKeepsEarlierAllocations(t *testing.T) {
	var a Arena
	var held [][]int
	for i := 1; i <= 200; i++ {
		s := Alloc[int](&a, i)
		for j := range s {
			s[j] = i
		}
		held = append(held, s)
	}
	grown := Alloc[int](&a, 3)[:0]
	for i := 0; i < 100; i++ {
		grown = Append(&a, grown, i)
	}
	for i, s := range held {
		for _, v := range s {
			if v != i+1 {
				t.Fatalf("allocation %d was overwritten: holds %d", i+1, v)
			}
		}
	}
	for i, v := range grown {
		if v != i {
			t.Fatalf("grown[%d] = %d", i, v)
		}
	}
	a.reset()
	if s := Alloc[int](&a, 5); s[0] != 0 || s[4] != 0 {
		t.Fatalf("a recycled allocation is not zeroed: %v", s)
	}
}

// TestArenaNilAllocatesFromHeap: the nil arena is the form construct-time
// and worker-side callers pass.
func TestArenaNilAllocatesFromHeap(t *testing.T) {
	s := Append(nil, Alloc[int](nil, 2), 7)
	if len(s) != 3 || s[2] != 7 || *AllocOne(nil, 9) != 9 {
		t.Fatalf("nil arena: %v", s)
	}
}

// TestArenaTrimsAfterOutsizedRun: one outsized run must not pin its peak;
// runs that merely fluctuate must not thrash.
func TestArenaTrimsAfterOutsizedRun(t *testing.T) {
	m := New(Config{P: 2})
	use := func(n int) {
		m.Run(func(pr *Proc) { Alloc[int64](pr.Arena(), n) })
	}
	for i := 0; i < 4; i++ {
		use(100)
	}
	steady := m.ArenaBytes()
	if steady < 2*100*8 {
		t.Fatalf("a warm arena retains %d bytes, less than the runs use", steady)
	}
	use(1 << 20)
	use(100)
	if peak := m.ArenaBytes(); peak < 2*(1<<20)*8 {
		t.Fatalf("the run after an outsized one should still hold its chunk (have %d bytes)", peak)
	}
	// The outsized need leaves the retention window once both of its
	// buckets have turned over.
	const small = 2*arenaWindow + 1
	for i := 0; i < small; i++ {
		use(100)
	}
	if got := m.ArenaBytes(); got > 4*steady {
		t.Errorf("%d small runs after an outsized one: arena still retains %d bytes (steady state %d)", small, got, steady)
	}
	// Sizes within the slack keep their chunk: no reallocation per run.
	use(400)
	use(400)
	before := m.ArenaBytes()
	for i := 0; i < 8; i++ {
		use(100 + 300*(i%2))
	}
	if got := m.ArenaBytes(); got != before {
		t.Errorf("fluctuating runs resized the arena: %d -> %d bytes", before, got)
	}
}

// TestMetricsRoundLogBounded: a serving machine folds rounds forever, so
// the per-round log is a window while the totals stay exact.
func TestMetricsRoundLogBounded(t *testing.T) {
	const p, rounds = 2, 3
	prog := func(pr *Proc) {
		for i := 0; i < rounds; i++ {
			out := Alloc[[]int](pr.Arena(), p)
			out[(pr.Rank()+1)%p] = Alloc[int](pr.Arena(), 1+i)
			Exchange(pr, "ring", out)
		}
	}

	// Short run: the aggregates equal what a full log sums to.
	m := New(Config{P: p})
	for i := 0; i < 5; i++ {
		m.Run(prog)
	}
	mt := m.Metrics()
	if len(mt.Rounds) != 5*(rounds+1) {
		t.Fatalf("short run logged %d rounds, want %d", len(mt.Rounds), 5*(rounds+1))
	}
	var comm, maxH, elems int
	var work time.Duration
	model := 0.0
	for _, r := range mt.Rounds {
		work += r.MaxWork
		maxH = max(maxH, r.MaxH)
		elems += r.TotalElems
		if !r.Final {
			comm++
			model += 3*float64(r.MaxH) + 1000
		}
	}
	if mt.CommRounds() != comm || mt.MaxH() != maxH || mt.TotalComm() != elems || mt.LocalWork() != work {
		t.Fatalf("totals (%d rounds, h %d, %d elems, %v) differ from the log's sums (%d, %d, %d, %v)",
			mt.CommRounds(), mt.MaxH(), mt.TotalComm(), mt.LocalWork(), comm, maxH, elems, work)
	}
	if got, want := mt.ModelTime(3, 1000), time.Duration(float64(work)+model); got != want {
		t.Fatalf("ModelTime = %v, the full log sums to %v", got, want)
	}

	// Long run: 20 000 runs on one machine.
	const runs = 20000
	m = New(Config{P: p})
	for i := 0; i < runs; i++ {
		m.Run(prog)
	}
	mt = m.Metrics()
	if len(mt.Rounds) > maxRoundLog {
		t.Fatalf("the round log holds %d entries, cap %d", len(mt.Rounds), maxRoundLog)
	}
	if mt.CommRounds() != runs*rounds || mt.Runs != runs {
		t.Fatalf("CommRounds = %d over %d runs, want %d over %d", mt.CommRounds(), mt.Runs, runs*rounds, runs)
	}
	if mt.MaxH() != rounds || mt.TotalComm() != runs*p*(1+2+3) {
		t.Fatalf("MaxH %d TotalComm %d, want %d and %d", mt.MaxH(), mt.TotalComm(), rounds, runs*p*(1+2+3))
	}
	// The window is the most recent rounds, oldest first: it ends with the
	// last run's final pseudo-round, preceded by that run's three rounds.
	last := mt.Rounds[len(mt.Rounds)-rounds-1:]
	for i := 0; i < rounds; i++ {
		if last[i].Final || last[i].MaxH != 1+i {
			t.Fatalf("window tail out of order: %+v", last)
		}
	}
	if !last[rounds].Final {
		t.Fatalf("window does not end with the last run's final round: %+v", last)
	}
}

// TestLargeRowsDoNotStayInTheArena: a superstep that moved a lot must not
// leave its rows reachable from the arenas for the rest of the run — the
// sender's row pointer is dropped once everyone has read it, and a column
// of large rows is returned on the heap.
func TestLargeRowsDoNotStayInTheArena(t *testing.T) {
	m := New(Config{P: 2})
	big := make([]int64, heapColumnBytes/8+1)
	m.Run(func(pr *Proc) {
		out := make([][]int64, 2)
		out[1-pr.Rank()] = big
		if in := Exchange(pr, "big", out); len(in[1-pr.Rank()]) != len(big) {
			t.Errorf("rank %d received %d elements, want %d", pr.Rank(), len(in[1-pr.Rank()]), len(big))
		}
		small := Exchange(pr, "small", [][]int64{{1}, {2}})
		if col := slabOf[[]int64](pr.Arena()); &small[0] != &col.buf[col.used-2] {
			t.Errorf("rank %d: a small column should be the arena's", pr.Rank())
		}
	})
	for r := range m.procs {
		a := &m.procs[r].arena
		for _, row := range slabOf[[][]int64](a).buf {
			if row != nil {
				t.Fatalf("rank %d still points at a deposited row after the run", r)
			}
		}
		for _, part := range slabOf[[]int64](a).buf {
			if len(part) > 1 {
				t.Fatalf("rank %d's arena still references a %d-element row", r, len(part))
			}
		}
	}
}
