// Package cgm implements the paper's machine model: the Coarse Grained
// Multicomputer CGM(s, p), also called the weak-CREW BSP model (§1 "The
// Model"). A machine has p processors with local memory, executing the same
// program (SPMD) as alternating phases of local computation and global
// communication supersteps. All communication happens through barrier-
// synchronised h-relations (Exchange); the machine accounts exactly the
// quantities the paper's theorems bound — the number of communication
// rounds, the h of every round (max elements sent or received by any
// processor), and per-processor local computation time.
//
// The physical payload movement is pluggable (Transport): by default the
// machine is an in-process simulator whose processors are goroutines and
// whose h-relations move rows through shared memory (loopback), but the
// same programs run unchanged with supersteps carried by real worker
// processes over TCP (internal/transport). Round and h accounting is
// transport-independent, so metrics are identical either way.
//
// Two execution modes are provided. Concurrent runs the processors as
// goroutines in parallel: fast, and the round/volume metrics are exact and
// deterministic. Measured serialises the processors with a run token so
// each processor's local-computation time is measured in isolation,
// yielding meaningful modelled-speedup curves (BSP cost Σ max_i w_i +
// g·h + L per superstep) even on hosts with few cores.
package cgm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Mode selects how processors are scheduled.
type Mode int

const (
	// Concurrent runs all processors as parallel goroutines.
	Concurrent Mode = iota
	// Measured time-slices processors one at a time so per-processor
	// local work can be timed precisely.
	Measured
)

// Config parametrises a machine.
type Config struct {
	// P is the number of processors (≥ 1). With a Transport it may be
	// left 0 (the transport's width is used) but must match when set.
	P int
	// Mode selects the scheduling mode; default Concurrent.
	Mode Mode
	// Transport carries the superstep payloads; nil selects the
	// in-process loopback transport. A Transport instance belongs to
	// exactly one machine.
	Transport Transport
	// Resident selects worker-resident execution: forest parts (and other
	// registered program state) live where the transport hosts them — in
	// the worker processes for a wire transport, in the machine's local
	// state store for the loopback — and the programs' local-computation
	// steps dispatch there (internal/exec). The transport must implement
	// ResidentTransport. Round and h accounting is unchanged: residency
	// moves payload endpoints, never the superstep structure.
	Resident bool
	// Obs, when set, receives the machine's cost-model quantities as live
	// series after every run: cgm_runs_total, cgm_rounds_total,
	// cgm_exchange_elems_total, and per-run cgm_run_rounds / cgm_run_maxh
	// histograms. Nil disables publishing; the paper-exact Metrics
	// snapshot is unaffected either way.
	Obs *obs.Registry
	// Tracer, when set, collects spans for traced runs (SetTrace): one
	// coordinator span per superstep, plus resident emit/collect spans on
	// the loopback (wire transports return worker-side spans through the
	// reply frames instead). Nil disables span recording.
	Tracer *obs.Tracer
	// Events, when set, receives a "session_abort" event the first time a
	// run aborts (SPMD violation, worker disconnect, user panic) — the
	// cluster event archive's hook into the machine. Nil disables it.
	Events obs.EventSink
}

// Default BSP cost parameters for Metrics.ModelTime: 50ns per exchanged
// record, 20µs per superstep barrier — the ballpark of mid-1990s
// multicomputers scaled to record granularity; only ratios matter for the
// reproduced curves.
const (
	DefaultG = 50
	DefaultL = 20000
)

// Machine is a CGM(s, p): p SPMD processor goroutines whose h-relations
// travel over the machine's Transport.
type Machine struct {
	p        int
	mode     Mode
	tr       Transport
	resident bool
	reg      *obs.Registry
	tracer   *obs.Tracer
	events   obs.EventSink
	// trace stamps the current run's supersteps (0 = untraced). Written
	// by SetTrace between runs, read by processor goroutines during Run —
	// the same exclusive-run contract Run itself has.
	trace uint64

	mu      sync.Mutex
	metrics Metrics

	// poisoned records the cause of an aborted run: a machine whose run
	// aborted (SPMD violation, worker disconnect, user panic) fails fast
	// on the next Run with that original cause. Only Run reads/writes it,
	// and concurrent Runs are already outside the machine's contract.
	poisoned any

	// Run state, owned by the machine and reused by every run: the
	// processor handles (with their per-rank arenas), the superstep
	// counters, the metrics barrier, the Measured-mode run token and the
	// abort latch. An abort breaks the barrier and closes abortCh for good
	// — which is safe only because an aborted machine is poisoned and
	// never runs again.
	procs   []Proc
	prog    func(*Proc)
	wg      sync.WaitGroup
	sent    []int
	recv    []int
	segTime []time.Duration
	bar     *barrier
	token   chan struct{}
	abortCh chan struct{}
	abort1  sync.Once
	abortV  any
	// The running run's share of the cost-model series (publishRun).
	runRounds, runElems int64
	runMaxH             int
}

// New creates a machine from the configuration.
func New(cfg Config) *Machine {
	p := cfg.P
	tr := cfg.Transport
	if tr != nil {
		if p == 0 {
			p = tr.P()
		}
		if p != tr.P() {
			panic(fmt.Sprintf("cgm: config wants %d processors but the transport connects %d", p, tr.P()))
		}
	}
	if p < 1 {
		panic("cgm: machine needs at least one processor")
	}
	if tr == nil {
		lb := newLoopback(p)
		lb.tracer = cfg.Tracer
		lb.reg = cfg.Obs
		if cfg.Resident {
			lb.enableResident()
		}
		tr = lb
	}
	if cfg.Resident {
		if _, ok := tr.(ResidentTransport); !ok {
			panic("cgm: config wants resident execution but the transport hosts no program state")
		}
	}
	m := &Machine{p: p, mode: cfg.Mode, tr: tr, resident: cfg.Resident,
		reg: cfg.Obs, tracer: cfg.Tracer, events: cfg.Events,
		procs: make([]Proc, p), sent: make([]int, p), recv: make([]int, p),
		segTime: make([]time.Duration, p), bar: newBarrier(p),
		token: make(chan struct{}, 1), abortCh: make(chan struct{})}
	for i := range m.procs {
		pr := &m.procs[i]
		*pr = Proc{m: m, rank: i}
		pr.start = pr.run
	}
	m.token <- struct{}{}
	m.metrics.WorkByProc = make([]time.Duration, p)
	return m
}

// SetTrace stamps the machine's subsequent supersteps with a trace ID
// minted by an obs.Tracer (0 clears the stamp). The stamp travels in
// every deposit — and, on wire transports, in every frame — so worker-
// side spans land under the same trace. Must not be called while a Run
// is in flight.
func (m *Machine) SetTrace(id uint64) { m.trace = id }

// Tracer returns the machine's tracer (nil when not configured).
func (m *Machine) Tracer() *obs.Tracer { return m.tracer }

// P reports the number of processors.
func (m *Machine) P() int { return m.p }

// Mode reports the scheduling mode.
func (m *Machine) Mode() Mode { return m.mode }

// Resident reports whether the machine executes registered SPMD programs
// against transport-resident state (worker memory on wire transports).
func (m *Machine) Resident() bool { return m.resident }

// Close releases the machine's transport (network sessions for wire
// transports; a no-op for the in-process loopback).
func (m *Machine) Close() error { return m.tr.Close() }

// ArenaBytes reports the capacity the machine's per-rank run arenas
// currently retain. Must not be called while a Run is in flight.
func (m *Machine) ArenaBytes() int {
	total := 0
	for i := range m.procs {
		total += m.procs[i].arena.bytes()
	}
	return total
}

// ReleaseArenas zeroes what the last run left in the per-rank arenas, so
// nothing it exchanged stays reachable through them; the capacity is kept
// for the next run. A resident loopback drops its last superstep's
// encoded blocks too (every rank collected them before the run ended). It
// invalidates the run's arena-backed results exactly as the next Run
// would — call it when they have been consumed, after a run that moved
// rows worth collecting. Must not be called while a Run is in flight.
func (m *Machine) ReleaseArenas() {
	for i := range m.procs {
		m.procs[i].arena.release()
	}
	if lt, ok := m.tr.(*loopback); ok && lt.rslots != nil {
		clear(lt.rslots)
		for _, col := range lt.rcols {
			clear(col)
		}
	}
}

// Proc is the per-processor handle passed to SPMD programs. The machine
// owns one per rank and reuses it for every run.
type Proc struct {
	m    *Machine
	rank int
	// start is pr.run, bound once: `go pr.run()` would allocate the method
	// value again for every rank of every run.
	start    func()
	opSeq    int
	resumeAt time.Time
	arena    Arena
}

// Rank reports the processor identity in 0..P-1.
func (pr *Proc) Rank() int { return pr.rank }

// P reports the machine width.
func (pr *Proc) P() int { return pr.m.p }

// Machine returns the underlying machine.
func (pr *Proc) Machine() *Machine { return pr.m }

// Arena returns the rank's run arena (see Arena for the lifetime rule).
func (pr *Proc) Arena() *Arena { return &pr.arena }

// abortSignal is the panic payload used to unwind processors after the
// machine has been poisoned; the original cause is re-raised by Run.
type abortSignal struct{}

// doAbort poisons the run: barrier waiters, token waiters and transport
// exchanges unwind, and the first cause wins.
func (m *Machine) doAbort(cause any) {
	m.abort1.Do(func() {
		m.abortV = cause
		close(m.abortCh)
		m.bar.break_()
		m.tr.Abort(fmt.Sprint(cause))
		if m.events != nil {
			m.events("session_abort", obs.CoordRank, fmt.Sprint(cause))
		}
	})
}

// fail aborts the machine with cause and unwinds the calling processor.
func (m *Machine) fail(cause any) {
	m.doAbort(cause)
	panic(abortSignal{})
}

// await parks the processor at the machine's metrics barrier, unwinding
// if the run aborted meanwhile.
func (m *Machine) await() {
	if !m.bar.await() {
		panic(abortSignal{})
	}
}

// Run executes prog on every processor and blocks until all finish. The
// program must be SPMD: every processor performs the same sequence of
// collective operations (enforced; violations abort the run with a
// diagnostic panic). Per-run state (op sequence) is fresh; metrics
// accumulate across runs until ResetMetrics. Starting a run recycles the
// per-rank arenas, so whatever the previous run handed out of them —
// the [][]T an Exchange returned included — is invalid from here on.
//
// A machine whose run aborted is poisoned: subsequent Runs fail fast
// with the original cause (on every transport — an in-process machine
// is cheap to replace, and a wire transport's workers are in an unknown
// superstep state after an abort).
func (m *Machine) Run(prog func(*Proc)) {
	if m.poisoned != nil {
		panic(fmt.Sprintf("cgm: machine aborted in an earlier run: %v", m.poisoned))
	}
	if err := m.tr.Reset(); err != nil {
		m.poisoned = err
		panic(fmt.Sprintf("cgm: machine transport unusable: %v", err))
	}
	m.runRounds, m.runElems, m.runMaxH = 0, 0, 0
	m.prog = prog
	m.wg.Add(m.p)
	for i := range m.procs {
		pr := &m.procs[i]
		pr.opSeq = 0
		// Every rank left the previous run at its wg.Wait, so nothing reads
		// what the arena handed out then except between-run callers, whose
		// window closes here.
		pr.arena.reset()
		go pr.start()
	}
	m.wg.Wait()
	m.prog = nil
	if m.abortV != nil {
		m.poisoned = m.abortV
		panic(fmt.Sprintf("cgm: machine aborted: %v", m.abortV))
	}
	// Fold the trailing local segments into a final pseudo-round.
	m.foldRound("run-end", true)
	m.metrics.Runs++
	if m.reg != nil {
		m.publishRun()
	}
}

// run executes the machine's current program on this processor.
func (pr *Proc) run() {
	m := pr.m
	defer m.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); !isAbort {
				m.doAbort(r)
			}
		}
	}()
	pr.acquireToken()
	pr.resumeAt = time.Now()
	m.prog(pr)
	pr.closeSegment()
	pr.releaseToken()
}

// publishRun mirrors the finished run's round stats into the registry as
// live series: the cost model the paper proves bounds on — rounds, MaxH,
// total exchanged elements — observable on a running cluster, not only in
// post-hoc Metrics snapshots.
func (m *Machine) publishRun() {
	m.reg.Counter("cgm_runs_total").Inc()
	m.reg.Counter("cgm_rounds_total").Add(m.runRounds)
	m.reg.Counter("cgm_exchange_elems_total").Add(m.runElems)
	m.reg.Histogram("cgm_run_rounds").Observe(m.runRounds)
	m.reg.Histogram("cgm_run_maxh").Observe(int64(m.runMaxH))
	m.reg.Gauge("cgm_last_run_maxh").Set(int64(m.runMaxH))
}

// acquireToken blocks until the processor may run (Measured mode only).
func (pr *Proc) acquireToken() {
	if pr.m.mode != Measured {
		return
	}
	select {
	case <-pr.m.token:
	case <-pr.m.abortCh:
		panic(abortSignal{})
	}
}

func (pr *Proc) releaseToken() {
	if pr.m.mode != Measured {
		return
	}
	pr.m.token <- struct{}{}
}

// closeSegment charges the local computation since the last resume to this
// processor.
func (pr *Proc) closeSegment() {
	pr.m.segTime[pr.rank] += time.Since(pr.resumeAt)
}

// foldRound moves the current per-processor segment times (and, unless
// final, the sent/recv counters) into a RoundStat. Callers must guarantee
// quiescence: either all processors are parked at the machine barrier, or
// (final) the run has ended.
func (m *Machine) foldRound(label string, final bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := RoundStat{Label: label}
	for i := 0; i < m.p; i++ {
		if m.segTime[i] > rs.MaxWork {
			rs.MaxWork = m.segTime[i]
		}
		m.metrics.WorkByProc[i] += m.segTime[i]
		m.segTime[i] = 0
		if !final {
			h := m.sent[i]
			if m.recv[i] > h {
				h = m.recv[i]
			}
			if h > rs.MaxH {
				rs.MaxH = h
			}
			rs.TotalElems += m.sent[i]
			m.sent[i], m.recv[i] = 0, 0
		}
	}
	rs.Final = final
	m.metrics.Fold(rs)
	if !final {
		m.runRounds++
		m.runElems += int64(rs.TotalElems)
		m.runMaxH = max(m.runMaxH, rs.MaxH)
	}
}

// Metrics returns a snapshot of the accumulated metrics.
func (m *Machine) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics.clone()
}

// ResetMetrics clears the accumulated metrics (e.g. to measure the search
// phase separately from construction).
func (m *Machine) ResetMetrics() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = Metrics{WorkByProc: make([]time.Duration, m.p)}
}

// barrier is a reusable generation barrier for p goroutines that can be
// broken to unwind all waiters when the machine aborts.
type barrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    uint64
	broken bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n participants arrive; it reports false if the
// barrier was broken before or while waiting.
func (b *barrier) await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	return !b.broken
}

// break_ poisons the barrier, waking all waiters into failed awaits.
func (b *barrier) break_() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
