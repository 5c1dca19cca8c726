package cgm

import (
	"fmt"
	"reflect"
	"slices"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Exchange is the machine's single communication primitive: a personalized
// all-to-all (the h-relation of the BSP model). Processor i provides
// out[j] — the elements destined for processor j — and receives in[j] —
// the elements processor j addressed to it. Every higher-level collective
// (broadcasts, scans, sorts) is built from Exchange, so every one of them
// is accounted as exactly one communication round, matching how the paper
// counts "a constant number of h-relations".
//
// The label names the collective in metrics and SPMD diagnostics. All
// processors must call the same sequence of exchanges with the same labels
// and element type; a divergent processor aborts the whole machine with a
// diagnostic rather than deadlocking. The payload movement itself is the
// machine transport's job: the loopback transport passes rows by
// reference, wire transports carry encoded blocks — the raw layout of a
// registered wire.Codec when T has one, gob otherwise (so an unregistered
// T must be gob-encodable — in practice: exported fields).
//
// The returned column is carved from the rank's run arena (unless it holds
// more than heapColumnBytes of rows): it — not the rows it points at,
// which belong to their senders — is valid until the machine's next Run
// begins.
func Exchange[T any](pr *Proc, label string, out [][]T) [][]T {
	m := pr.m
	if len(out) != m.p {
		panic(fmt.Sprintf("cgm: %s: out has %d destinations, machine has %d", label, len(out), m.p))
	}
	pr.closeSegment()
	pr.releaseToken()

	dep := Deposit{Seq: pr.opSeq, Label: label, Trace: m.trace}
	pr.opSeq++
	sent := 0
	for _, s := range out {
		sent += len(s)
	}
	onWire := m.tr.Wire()
	var encBuf []byte
	var row *[][]T
	if onWire {
		dep.Type = reflect.TypeOf((*T)(nil)).Elem().String()
		blocks, buf, err := encodeBlocks(&pr.arena, out, pr.rank)
		if err != nil {
			m.fail(fmt.Sprintf("cgm: %s: encoding payload: %v", dep.stamp(), err))
		}
		dep.Blocks = blocks
		encBuf = buf
	} else {
		// Boxing a pointer allocates nothing; boxing the slice header would.
		row = AllocOne(&pr.arena, out)
		dep.Row = row
	}

	xStart := int64(0)
	if dep.Trace != 0 && pr.rank == 0 {
		xStart = m.tracer.Now()
	}
	col, err := m.tr.Exchange(pr.rank, dep)
	if err != nil {
		m.fail(err)
	}
	if dep.Trace != 0 && pr.rank == 0 {
		// One coordinator span per superstep (rank 0's view; the barrier
		// synchronises all ranks, so its duration is representative).
		m.tracer.Add(obs.Span{Trace: dep.Trace, Stamp: int64(dep.Seq),
			Name: "x:" + label, Rank: obs.CoordRank, Start: xStart, Dur: m.tracer.Now() - xStart})
	}
	if encBuf != nil {
		// The transport has written (or routed) every block by the time
		// Exchange returns, so the pooled buffer the blocks alias can go
		// back for the next superstep's deposit — and the arena-held block
		// headers must stop referring to it.
		clear(dep.Blocks)
		wire.PutBuf(encBuf)
	}

	in := Alloc[[]T](&pr.arena, m.p)
	recv := 0
	if onWire {
		for j, b := range col.Blocks {
			if j == pr.rank {
				// The self-addressed block never crossed the wire (its
				// deposit slot was nil): alias it directly, exactly the
				// sharing the loopback transport exhibits.
				in[j] = out[j]
				recv += len(in[j])
				continue
			}
			part, err := decodeBlock[T](b)
			if err != nil {
				m.fail(fmt.Sprintf("cgm: %s: decoding block from processor %d: %v", dep.stamp(), j, err))
			}
			in[j] = part
			recv += len(part)
		}
	} else {
		for j, row := range col.Rows {
			src, ok := row.(*[][]T)
			if !ok {
				m.fail(fmt.Sprintf("SPMD violation: processor %d exchanged a different element type at %q", j, dep.stamp()))
			}
			in[j] = (*src)[pr.rank]
			recv += len(in[j])
		}
	}
	m.sent[pr.rank] = sent
	m.recv[pr.rank] = recv
	if recv*int(unsafe.Sizeof(*new(T))) > heapColumnBytes {
		// A column of large rows goes to the heap, where dropping it frees
		// the rows; in the arena it would keep them reachable until the run
		// ends — through all d phases of a construct that exchanges every
		// record in each.
		arenaIn := in
		in = slices.Clone(arenaIn)
		clear(arenaIn)
	}

	m.await() // everyone read and counted
	if row != nil {
		*row = nil // every receiver has its bucket; stop pinning ours
	}

	if pr.rank == 0 {
		m.foldRound(label, false)
	}

	m.await() // metrics folded before anyone writes new segments

	pr.acquireToken()
	pr.resumeAt = nowAfterToken()
	return in
}

// heapColumnBytes is the received payload above which Exchange returns a
// heap column instead of an arena one: one small allocation per superstep
// that moved at least this much.
const heapColumnBytes = 64 << 10

// Barrier is a pure synchronisation superstep with no payload.
func Barrier(pr *Proc, label string) {
	Exchange(pr, label, Alloc[[]byte](&pr.arena, pr.m.p))
}

// encodeBlocks encodes each destination's payload independently, so a
// wire transport can route block j to rank j without re-encoding — raw
// layout when []T has a registered wire codec, gob fallback otherwise.
// The self-addressed slot stays nil: the machine keeps that block in
// memory (see the Deposit contract), so it is never serialized at all.
//
// All blocks are appended into one pooled buffer (each block a
// capacity-clipped view), returned alongside so the caller can release it
// once the transport is done with the deposit. If the buffer reallocates
// mid-deposit, earlier views keep the old backing array alive — still
// correct, merely unpooled.
func encodeBlocks[T any](a *Arena, out [][]T, self int) ([][]byte, []byte, error) {
	blocks := Alloc[[]byte](a, len(out))
	buf := wire.GetBuf()
	for j, part := range out {
		if j == self {
			continue
		}
		start := len(buf)
		var err error
		buf, err = wire.Encode(buf, part)
		if err != nil {
			wire.PutBuf(buf)
			return nil, nil, err
		}
		blocks[j] = buf[start:len(buf):len(buf)]
	}
	return blocks, buf, nil
}

// decodeBlock decodes one source's payload.
func decodeBlock[T any](b []byte) ([]T, error) {
	return wire.Decode[[]T](b)
}
