package cgm

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Transport moves one superstep's payloads between the machine's p ranks.
// The machine keeps everything model-level — scheduling, the run token,
// metrics folding, abort bookkeeping — and delegates the physical
// h-relation to a Transport: each rank deposits its label-stamped out-row
// and blocks until the column addressed to it (one block from every
// source rank) is available. A Transport is owned by exactly one Machine;
// it must not be shared.
//
// Two families exist: in-process transports (Wire() == false) move typed
// rows by reference through shared memory (the loopback default, the
// original slots+barrier machinery of the simulator), and wire transports
// (Wire() == true) move encoded blocks — the raw layout of a registered
// wire.Codec, or its gob fallback — over the TCP implementation in
// internal/transport, which runs every superstep through real worker
// processes.
type Transport interface {
	// P reports the number of ranks the transport connects.
	P() int
	// Wire reports whether payloads must be serialized: when true the
	// machine fills Deposit.Blocks (wire-encoded) and reads Column.Blocks;
	// when false it passes Deposit.Row by reference and reads Column.Rows.
	Wire() bool
	// Exchange deposits rank's out-row for one superstep and blocks until
	// every rank has deposited, returning the column addressed to rank.
	// It returns an error on SPMD divergence (a label or sequence number
	// that differs across ranks) or fabric failure; ErrAborted when
	// unblocked by Abort. The column is the transport's to reuse once the
	// rank calls Exchange again.
	Exchange(rank int, dep Deposit) (Column, error)
	// Abort poisons the transport with a diagnostic: every blocked or
	// future Exchange must return promptly with an error.
	Abort(msg string)
	// Reset prepares per-run state; it fails if the transport is unusable
	// (aborted or closed), which poisons the machine before the run starts.
	Reset() error
	// Close releases the transport's resources (connections, buffers).
	Close() error
}

// ErrAborted is returned by Transport.Exchange calls unblocked by Abort;
// the machine's original abort cause takes precedence over it.
var ErrAborted = errors.New("cgm: transport aborted")

// Deposit is one rank's contribution to a superstep: p destination
// payloads plus the (label, seq) stamp the SPMD check compares across
// ranks — structurally, so no superstep formats a string; "label#seq" is
// spelled out (StampOf) only inside a divergence diagnostic.
type Deposit struct {
	// Seq is the rank's collective-operation sequence number this run and
	// Label the collective's name: both equal on every rank iff the
	// program is SPMD.
	Seq   int
	Label string
	// Type names the element type (wire transports only; in-process
	// transports detect type divergence on the typed rows directly).
	Type string
	// Trace is the machine's trace stamp for this superstep (0 =
	// untraced). Wire transports carry it in the frame header so worker-
	// side spans land under the coordinator's trace.
	Trace uint64
	// Row points at the typed [][]T passed to Exchange (a *[][]T;
	// in-process only).
	Row any
	// Blocks are the wire-encoded per-destination payloads (wire only).
	// Blocks[rank] — the depositing rank's self-addressed block — is nil:
	// the machine retains it in memory, so a transport never carries it
	// and may return nil in the corresponding Column slot. Blocks alias a
	// pooled buffer the machine recycles once Exchange returns, so a
	// transport must finish writing (or copying) them before returning —
	// it must not retain them.
	Blocks [][]byte
}

// StampOf spells a superstep stamp the way diagnostics and the health
// beacon name it.
func StampOf(label string, seq int) string { return label + "#" + strconv.Itoa(seq) }

func (d *Deposit) stamp() string { return StampOf(d.Label, d.Seq) }

// Column is what one rank collects from a superstep: one block from every
// source rank.
type Column struct {
	// Rows holds each source's full deposited row (in-process transports);
	// the caller extracts its own column, preserving zero-copy semantics.
	Rows []any
	// Blocks holds each source's encoded block addressed to this rank
	// (wire transports). The self slot is ignored by the machine — the
	// self-addressed block never travels (see Deposit).
	Blocks [][]byte
}

// loopback is the default in-process transport: the machine's original
// shared-slots + barrier machinery. Rows travel by reference, so it costs
// one interface store and one pointer snapshot per rank per superstep.
//
// A resident loopback additionally hosts one exec state store per rank,
// and runs the identical registered step programs a worker process would
// — including the wire encode/decode of resident payloads — so loopback
// and wire runs of a resident program execute the same code and account
// the same counts.
type loopback struct {
	p      int
	slots  []Deposit
	rows   [][]any // rows[rank] is rank's reusable snapshot of a superstep's rows
	bar    *barrier
	tracer *obs.Tracer
	reg    *obs.Registry

	// Resident state (nil for fabric machines).
	stores []*exec.Store
	rslots []residentSlot
	rcols  [][][]byte // rcols[rank] is rank's reusable resident column
}

// residentSlot is one rank's deposit of a resident superstep.
type residentSlot struct {
	label, typ string
	seq        int
	blocks     [][]byte
	self       any
}

// newLoopback creates the transport with everything a superstep needs
// already in place: the slots, the per-rank snapshots and the barrier are
// owned by the transport and reused by every run. (A broken barrier is
// never reused: Abort breaks it, and an aborted machine never runs again.)
func newLoopback(p int) *loopback {
	lt := &loopback{p: p, slots: make([]Deposit, p), rows: make([][]any, p), bar: newBarrier(p)}
	for i := range lt.rows {
		lt.rows[i] = make([]any, p)
	}
	return lt
}

// enableResident equips the loopback with per-rank state stores.
func (lt *loopback) enableResident() {
	lt.stores = make([]*exec.Store, lt.p)
	lt.rslots = make([]residentSlot, lt.p)
	lt.rcols = make([][][]byte, lt.p)
	for i := range lt.stores {
		lt.stores[i] = exec.NewStore()
		lt.stores[i].SetObs(lt.reg)
		lt.rcols[i] = make([][]byte, lt.p)
	}
}

// spmdCheck compares rank's (label, seq) stamp with rank 0's.
func spmdCheck(rank int, label string, seq int, label0 string, seq0 int) error {
	if label == label0 && seq == seq0 {
		return nil
	}
	return fmt.Errorf("SPMD violation: processor %d is at %q while processor 0 is at %q",
		rank, StampOf(label, seq), StampOf(label0, seq0))
}

// CallStep runs a registered pure step against rank's local state store.
func (lt *loopback) CallStep(rank int, ref exec.Ref, args []byte) ([]byte, error) {
	if lt.stores == nil {
		return nil, errors.New("cgm: loopback transport is not resident")
	}
	return lt.stores[rank].Call(rank, lt.p, ref, args)
}

// ExchangeResident runs one resident superstep in-process: emit steps (if
// any) produce the deposits, the column is assembled from the shared
// slots, and collect steps consume it — all against the per-rank stores.
func (lt *loopback) ExchangeResident(rank int, dep ResidentDeposit) (ResidentReply, error) {
	if lt.stores == nil {
		return ResidentReply{}, errors.New("cgm: loopback transport is not resident")
	}
	rep := ResidentReply{Sent: dep.Sent}
	slot := residentSlot{label: dep.Label, typ: dep.Type, seq: dep.Seq, blocks: dep.Blocks}
	if dep.Emit != nil {
		var out *exec.Outbox
		var err error
		lt.tracer.Record(dep.Trace, int64(dep.Seq), rank, "emit", func() {
			out, err = lt.stores[rank].RunEmit(rank, lt.p, *dep.Emit, dep.EmitArgs)
		})
		if err != nil {
			return ResidentReply{}, err
		}
		slot.blocks, slot.self, slot.typ = out.Blocks, out.Self, out.Type
		rep.Note = out.Note
		rep.Sent = 0
		for _, c := range out.Counts {
			rep.Sent += c
		}
	}
	lt.rslots[rank] = slot
	if !lt.bar.await() { // everyone deposited
		return ResidentReply{}, ErrAborted
	}
	if err := spmdCheck(rank, slot.label, slot.seq, lt.rslots[0].label, lt.rslots[0].seq); err != nil {
		return ResidentReply{}, err
	}
	if slot.typ != lt.rslots[0].typ {
		return ResidentReply{}, fmt.Errorf("SPMD violation: processor %d exchanged %s at %q where processor 0 exchanged %s",
			rank, slot.typ, StampOf(slot.label, slot.seq), lt.rslots[0].typ)
	}
	// Assemble this rank's column. As with the fabric snapshot, the
	// machine's post-exchange barrier guarantees no rank deposits the next
	// superstep before every rank has read this one; the collect step is
	// done with the column when it returns, so the rank reuses it.
	col := lt.rcols[rank]
	for j := 0; j < lt.p; j++ {
		switch {
		case j != rank:
			col[j] = lt.rslots[j].blocks[rank]
		case slot.self == nil:
			col[j] = slot.blocks[j] // coordinator deposit ships self encoded
		default:
			col[j] = nil
		}
	}
	var reply []byte
	var recv int
	var err error
	lt.tracer.Record(dep.Trace, int64(dep.Seq), rank, "collect", func() {
		reply, recv, err = lt.stores[rank].RunCollect(rank, lt.p, *dep.Collect,
			&exec.Inbox{Blocks: col, Self: slot.self}, dep.CollectArgs)
	})
	if err != nil {
		return ResidentReply{}, err
	}
	rep.Reply, rep.Recv = reply, recv
	return rep, nil
}

func (lt *loopback) P() int     { return lt.p }
func (lt *loopback) Wire() bool { return false }

// Reset has nothing to prepare: a run leaves the slots and the barrier
// ready for the next one, and only a run that aborted does not — whose
// machine is poisoned before it could ask.
func (lt *loopback) Reset() error { return nil }

func (lt *loopback) Exchange(rank int, dep Deposit) (Column, error) {
	lt.slots[rank] = dep
	if !lt.bar.await() { // everyone deposited
		return Column{}, ErrAborted
	}
	if err := spmdCheck(rank, dep.Label, dep.Seq, lt.slots[0].Label, lt.slots[0].Seq); err != nil {
		return Column{}, err
	}
	// Snapshot the row references before returning: the machine's
	// post-exchange barrier guarantees no rank deposits the next superstep
	// until every rank has passed it, so the snapshot (not the slots) is
	// all a reader touches once rows for the next round start landing.
	rows := lt.rows[rank]
	for j := range rows {
		rows[j] = lt.slots[j].Row
	}
	return Column{Rows: rows}, nil
}

func (lt *loopback) Abort(string) { lt.bar.break_() }

func (lt *loopback) Close() error { return nil }

// Provider supplies machines of a fixed width. It is the seam the upper
// layers (core.BuildOn, the store compactor, the drtree.Cluster…
// constructors) are threaded through: a LocalProvider yields in-process
// simulators, a transport.Cluster yields machines whose supersteps run
// over TCP on real worker processes — the same SPMD programs run
// unchanged on either.
type Provider interface {
	// P reports the width of the machines the provider creates.
	P() int
	// NewMachine returns a fresh machine. Machines are independent: each
	// owns its transport, and a machine poisoned by an abort is replaced,
	// never revived.
	NewMachine() (*Machine, error)
	// Close releases provider-wide resources (e.g. cluster sessions).
	Close() error
}

// LocalProvider is the in-process Provider: every machine is a fresh
// loopback simulator configured by Cfg.
type LocalProvider struct {
	cfg Config
}

// NewLocalProvider creates a provider of in-process machines.
func NewLocalProvider(cfg Config) LocalProvider {
	if cfg.Transport != nil {
		panic("cgm: LocalProvider cannot share one Transport across machines")
	}
	if cfg.P < 1 {
		panic("cgm: provider needs at least one processor")
	}
	return LocalProvider{cfg: cfg}
}

// P reports the configured machine width.
func (lp LocalProvider) P() int { return lp.cfg.P }

// NewMachine returns a fresh in-process machine.
func (lp LocalProvider) NewMachine() (*Machine, error) { return New(lp.cfg), nil }

// Close is a no-op for local machines.
func (lp LocalProvider) Close() error { return nil }
