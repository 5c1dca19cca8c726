// Package exec is the SPMD program runtime behind worker-resident
// execution: a registry of named programs whose per-processor state lives
// where the program's steps run — in a worker process for wire transports,
// in the machine's local state store for the loopback transport.
//
// The coordinator still drives every superstep (so round/h accounting
// stays in cgm.Machine, identical across transports and residency modes),
// but the local-computation steps that touch a processor's forest part are
// dispatched by name: the coordinator sends (program, version, step, args)
// and the step function runs against the rank's locally held state,
// returning only its reply block. Exchange payloads can likewise originate
// (Emit) and terminate (Collect) at the state's side, so bulk blocks —
// element copies, routed construction points — never transit the
// coordinator on a wire transport.
//
// Programs are registered by the packages that define them (internal/core
// registers the construct/search forest program in its init), so any
// binary importing those packages — the coordinator and cmd/rangeworker
// alike — resolves the same names to the same code. Versions guard against
// skew: a step whose registered version differs from the caller's is
// rejected, never run against mismatched state.
package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Ctx carries the identity of the rank whose resident state a step runs
// against.
type Ctx struct {
	Rank, P int
	// State is the program's per-rank state, created by Program.New on
	// the first step dispatched to this rank.
	State any
}

// Step is a pure remote call: args in, reply out, no h-relation.
type Step func(c *Ctx, args []byte) ([]byte, error)

// Outbox is what an Emit step produces: one superstep's deposit,
// originated at the state's side.
type Outbox struct {
	// Blocks are the encoded per-destination payloads; the self slot is
	// nil (the self-addressed payload travels as Self, in memory).
	Blocks [][]byte
	// Counts are per-destination element counts (self included) — the
	// machine's h accounting, identical to what a coordinator-side
	// deposit of the same rows would count.
	Counts []int
	// Self is the typed self-addressed payload, handed to the local
	// Collect without serialization.
	Self any
	// Type names the exchanged element type for the SPMD stamp check.
	Type string
}

// Inbox is what a Collect step consumes: the assembled column of one
// superstep.
type Inbox struct {
	// Blocks holds each source's encoded block addressed to this rank;
	// the self slot is nil.
	Blocks [][]byte
	// Self is the typed self-addressed payload of this side's emit.
	Self any
}

// Emit produces one superstep's deposit from resident state.
type Emit func(c *Ctx, args []byte) (*Outbox, error)

// Collect consumes one superstep's assembled column into resident state,
// returning a reply block and the received element count.
type Collect func(c *Ctx, in *Inbox, args []byte) (reply []byte, recv int, err error)

// Program bundles the named steps of one SPMD program family over one
// per-rank state type.
type Program struct {
	// Name identifies the program in the registry and on the wire.
	Name string
	// Version guards against coordinator/worker skew: dispatch fails
	// unless the caller's version matches.
	Version int
	// New creates the per-rank state on first dispatch.
	New func(rank, p int) any
	// Steps, Emits and Collects are the program's named step functions.
	Steps    map[string]Step
	Emits    map[string]Emit
	Collects map[string]Collect
}

// Ref names one registered step for dispatch.
type Ref struct {
	Program string
	Version int
	Step    string
}

// registry is the process-global program table. Registration happens in
// package init functions, so lookups never race writes.
var (
	regMu    sync.RWMutex
	registry = make(map[string]*Program)
)

// Register adds a program to the process registry; registering the same
// name twice panics (two packages claiming one program is a bug).
func Register(p *Program) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("exec: program %q registered twice", p.Name))
	}
	registry[p.Name] = p
}

// lookup resolves a step reference to its program, checking the version.
func lookup(ref Ref) (*Program, error) {
	regMu.RLock()
	p := registry[ref.Program]
	regMu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("exec: program %q not registered (is the package defining it imported by this binary?)", ref.Program)
	}
	if p.Version != ref.Version {
		return nil, fmt.Errorf("exec: program %q is version %d here, caller wants %d", ref.Program, p.Version, ref.Version)
	}
	return p, nil
}

// Store holds the resident state of every program for one execution slot —
// one (session, rank) on a worker, one rank of a resident loopback
// machine. States are created lazily by Program.New on first dispatch.
type Store struct {
	mu    sync.Mutex
	state map[string]any
	reg   atomic.Pointer[obs.Registry]
}

// NewStore creates an empty state store.
func NewStore() *Store { return &Store{state: make(map[string]any)} }

// SetObs publishes the wall time of every dispatched step to reg as
// exec_step_ns{kind=...,step="program/step"} histograms. Safe to call
// concurrently with dispatch; nil stops publishing.
func (s *Store) SetObs(reg *obs.Registry) { s.reg.Store(reg) }

// observe records one step's wall time (no-op without a registry).
func (s *Store) observe(kind string, ref Ref, t0 time.Time) {
	reg := s.reg.Load()
	if reg == nil {
		return
	}
	name := `exec_step_ns{kind="` + kind + `",step="` + ref.Program + `/` + ref.Step + `"}`
	reg.Histogram(name).Observe(time.Since(t0).Nanoseconds())
}

// ctx resolves (creating if needed) the program's state for rank.
func (s *Store) ctx(p *Program, rank, width int) *Ctx {
	s.mu.Lock()
	st, ok := s.state[p.Name]
	if !ok {
		st = p.New(rank, width)
		s.state[p.Name] = st
	}
	s.mu.Unlock()
	return &Ctx{Rank: rank, P: width, State: st}
}

// guard converts a step panic into an error so a buggy or aborted step
// poisons one superstep (the machine aborts with the diagnostic) rather
// than crashing the worker process hosting other sessions.
func guard(ref Ref, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("exec: step %s/%s panicked: %v\n%s", ref.Program, ref.Step, r, debug.Stack())
	}
}

// Call dispatches a pure step against rank's resident state.
func (s *Store) Call(rank, width int, ref Ref, args []byte) (reply []byte, err error) {
	p, err := lookup(ref)
	if err != nil {
		return nil, err
	}
	step := p.Steps[ref.Step]
	if step == nil {
		return nil, fmt.Errorf("exec: program %q has no step %q", ref.Program, ref.Step)
	}
	defer guard(ref, &err)
	defer s.observe("call", ref, time.Now())
	return step(s.ctx(p, rank, width), args)
}

// RunEmit dispatches an emit step, producing one superstep's deposit.
func (s *Store) RunEmit(rank, width int, ref Ref, args []byte) (out *Outbox, err error) {
	p, err := lookup(ref)
	if err != nil {
		return nil, err
	}
	emit := p.Emits[ref.Step]
	if emit == nil {
		return nil, fmt.Errorf("exec: program %q has no emit step %q", ref.Program, ref.Step)
	}
	defer guard(ref, &err)
	defer s.observe("emit", ref, time.Now())
	return emit(s.ctx(p, rank, width), args)
}

// RunCollect dispatches a collect step, consuming one superstep's column.
func (s *Store) RunCollect(rank, width int, ref Ref, in *Inbox, args []byte) (reply []byte, recv int, err error) {
	p, err := lookup(ref)
	if err != nil {
		return nil, 0, err
	}
	collect := p.Collects[ref.Step]
	if collect == nil {
		return nil, 0, fmt.Errorf("exec: program %q has no collect step %q", ref.Program, ref.Step)
	}
	defer guard(ref, &err)
	defer s.observe("collect", ref, time.Now())
	return collect(s.ctx(p, rank, width), in, args)
}
