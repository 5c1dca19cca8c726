package cgm

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file is the machine-side half of worker-resident execution
// (internal/exec): the transport contract for hosting per-rank program
// state, and the two primitives SPMD programs use against it —
//
//	CallResident   a pure remote step (no h-relation, no round)
//	ExchangeSteps  deposit emitted AND column consumed resident-side
//
// The exchange is an ordinary superstep to the machine: same stamp
// discipline, same barrier structure, and sent/recv element counts
// identical to a coordinator-side Exchange of the same rows — so Metrics
// are byte-for-byte equal across {fabric, resident} by construction. What
// residency changes is where the payload bytes originate and terminate:
// on a wire transport they move worker-to-worker without ever transiting
// the coordinator.

// ResidentTransport is implemented by transports that host per-rank
// program state (an exec state store per rank) where superstep payloads
// can originate and terminate.
type ResidentTransport interface {
	Transport
	// CallStep runs a registered pure step against rank's resident state.
	CallStep(rank int, ref exec.Ref, args []byte) ([]byte, error)
	// ExchangeResident runs one superstep whose deposit is produced and
	// whose column is consumed resident-side.
	ExchangeResident(rank int, dep ResidentDeposit) (ResidentReply, error)
}

// ResidentDeposit is one rank's contribution to a resident superstep: the
// emit step that produces its deposit and the collect step that consumes
// its column, both run where the rank's state lives.
type ResidentDeposit struct {
	// Seq and Label mirror Deposit: the SPMD check compares them.
	Seq   int
	Label string
	// Trace is the machine's trace stamp for this superstep (0 =
	// untraced); resident hosts stamp their emit/collect spans with it.
	Trace uint64
	// Emit produces the deposit resident-side; it also names the
	// exchanged element type and counts what is sent.
	Emit     exec.Ref
	EmitArgs []byte
	// Collect consumes the assembled column resident-side.
	Collect     exec.Ref
	CollectArgs []byte
}

// ResidentReply is what one rank gets back from a resident superstep.
type ResidentReply struct {
	// Reply is the collect step's encoded reply.
	Reply []byte
	// Sent and Recv are the rank's element counts for h accounting.
	Sent, Recv int
}

// residentTransport resolves the machine's transport as resident, failing
// the run with a diagnostic when the machine was not configured for
// residency.
func (pr *Proc) residentTransport(what string) ResidentTransport {
	m := pr.m
	rt, ok := m.tr.(ResidentTransport)
	if !ok || !m.resident {
		m.fail(fmt.Sprintf("cgm: %s needs a resident machine (Config.Resident)", what))
	}
	return rt
}

// CallResident runs a registered pure step against the rank's resident
// state — in the worker process on a wire transport, in the machine's
// local state store on the loopback. It is not a collective: no superstep,
// no communication round; the dispatch round-trip is charged as local
// computation time.
func CallResident[A any, R any](pr *Proc, ref exec.Ref, args A) R {
	rt := pr.residentTransport("CallResident")
	b, err := rt.CallStep(pr.rank, ref, exec.Marshal(args))
	if err != nil {
		pr.m.fail(fmt.Sprintf("cgm: resident step %s/%s on rank %d: %v", ref.Program, ref.Step, pr.rank, err))
	}
	r, err := exec.Unmarshal[R](b)
	if err != nil {
		pr.m.fail(fmt.Sprintf("cgm: resident step %s/%s reply: %v", ref.Program, ref.Step, err))
	}
	return r
}

// ResidentCall runs a registered step against rank's resident state
// outside any machine run (structure inspection, point fetches). The
// caller must guarantee no Run is in flight — the same single-use
// contract Machine.Run itself has.
func ResidentCall[A any, R any](m *Machine, rank int, ref exec.Ref, args A) (R, error) {
	var zero R
	rt, ok := m.tr.(ResidentTransport)
	if !ok || !m.resident {
		return zero, fmt.Errorf("cgm: machine is not resident")
	}
	b, err := rt.CallStep(rank, ref, exec.Marshal(args))
	if err != nil {
		return zero, fmt.Errorf("cgm: resident step %s/%s on rank %d: %w", ref.Program, ref.Step, rank, err)
	}
	return exec.Unmarshal[R](b)
}

// ExchangeSteps is a superstep whose deposit is produced by a registered
// emit step AND whose column is consumed by a registered collect step,
// both where the rank's state lives — the payload never touches the
// coordinator on a wire transport. It returns the collect step's reply.
// Exactly one communication round; element counts come from the emit and
// collect sides.
func ExchangeSteps[EA any, CA any, R any](pr *Proc, label string, emit exec.Ref, eargs EA, collect exec.Ref, cargs CA) R {
	m := pr.m
	pr.residentTransport("ExchangeSteps")
	pr.closeSegment()
	pr.releaseToken()

	// Both argument blocks go into one pooled buffer: the steps decode
	// them into values of their own, and runResident's closing barrier
	// means every rank's steps have run.
	buf, err := wire.Encode(wire.GetBuf(), eargs)
	split := len(buf)
	if err == nil {
		buf, err = wire.Encode(buf, cargs)
	}
	if err != nil {
		m.fail(fmt.Sprintf("cgm: %s: encoding step args: %v", StampOf(label, pr.opSeq), err))
	}
	dep := ResidentDeposit{
		Seq:         pr.opSeq,
		Label:       label,
		Emit:        emit,
		EmitArgs:    buf[:split:split],
		Collect:     collect,
		CollectArgs: buf[split:],
	}
	pr.opSeq++

	rep := pr.runResident(label, dep)
	wire.PutBuf(buf)
	r, err := exec.Unmarshal[R](rep.Reply)
	if err != nil {
		m.fail(fmt.Sprintf("cgm: %s: decoding collect reply: %v", StampOf(label, dep.Seq), err))
	}
	return r
}

// runResident performs the transport exchange and the superstep's
// accounting tail (counts, metrics fold, barrier discipline) of a
// resident exchange. The caller has already closed its local
// segment and released the run token.
func (pr *Proc) runResident(label string, dep ResidentDeposit) ResidentReply {
	m := pr.m
	rt := m.tr.(ResidentTransport)
	dep.Trace = m.trace
	xStart := int64(0)
	if dep.Trace != 0 && pr.rank == 0 {
		xStart = m.tracer.Now()
	}
	rep, err := rt.ExchangeResident(pr.rank, dep)
	if err != nil {
		m.fail(err)
	}
	if dep.Trace != 0 && pr.rank == 0 {
		m.tracer.Add(obs.Span{Trace: dep.Trace, Stamp: int64(dep.Seq),
			Name: "x:" + label, Rank: obs.CoordRank, Start: xStart, Dur: m.tracer.Now() - xStart})
	}
	m.sent[pr.rank] = rep.Sent
	m.recv[pr.rank] = rep.Recv

	m.await() // everyone exchanged and counted

	if pr.rank == 0 {
		m.foldRound(label, false)
	}

	m.await() // metrics folded before anyone writes new segments

	pr.acquireToken()
	pr.resumeAt = nowAfterToken()
	return rep
}
