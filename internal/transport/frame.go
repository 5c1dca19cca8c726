// Package transport runs the CGM machine's supersteps over TCP: the
// multicomputer as real processes. One coordinator process executes the
// SPMD program driver (the p rank goroutines, the hat replicas and the
// superstep accounting live there, exactly as on the loopback transport),
// and p worker processes carry the h-relations — every exchange leaves
// the coordinator as wire-encoded blocks (internal/wire: raw codec or gob
// fallback), is routed worker-to-worker over a mesh of TCP connections,
// validated for SPMD divergence on the remote side, and returns as the
// assembled column.
//
// With resident execution (cgm.Config.Resident) the workers are more than
// fabric: each session carries a per-rank state store of registered SPMD
// programs (internal/exec), the coordinator dispatches (program, version,
// step, args) control frames, and superstep payloads can originate and
// terminate in worker memory — the forest parts live where the program
// runs, and phase-C block traffic never transits the coordinator. Round
// and h accounting is done by the machine from element counts, so
// loopback and TCP runs of the same program produce identical Metrics in
// both residency modes — the equivalence the tests in this package pin
// down.
//
// Topology: Cluster (a cgm.Provider) opens one session per machine. The
// coordinator dials each worker once per session (rank i's conn carries
// deposits and step calls down, columns and step replies up); workers
// dial each other lazily, one directed conn per (session, source,
// destination) pair, to route blocks.
//
// Wire format: every frame is a 4-byte big-endian length prefix and a raw
// body — a kind byte; a version byte if the frame opens its connection
// (open, hello, feed-open, beacon-open); then every field of the kind's
// row in the table layout, in bit order, zero values included: integers
// as varints, strings and byte fields length-prefixed, a step reference
// behind a presence byte, lists as a count and their elements, payload
// blocks as a count and one uvarint(len+1) + bytes section each, 0
// marking a nil slot. A zero field costs one byte, so an untraced frame's
// spans are one count byte. The writer, the reader and FuzzFrameRoundTrip
// all read layout; a field outside its kind's row is not sent.
// Already-encoded blocks (see internal/wire) are appended verbatim on the
// way down, and every byte field and block is a view into the received
// frame body on the way up. Decoding goes through wire.Reader, so a
// hostile body gets an error, never a panic or an outsized allocation.
// The only per-connection decoding state is a table interning the strings
// a connection repeats.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/wire"
)

// maxFrame bounds a single frame (1 GiB) so a corrupt length prefix
// cannot ask for an absurd allocation.
const maxFrame = 1 << 30

// frameVersion is the header layout's version, carried by the first frame
// of every connection. A worker answers any other version with a
// diagnostic instead of misreading the fields. Version 1 was the
// gob-framed protocol, which had no version byte: a version-1 peer's
// stream misparses as some other frame, and the connection just closes.
const frameVersion = 2

// errFrameVersion marks a first frame whose version is not frameVersion.
var errFrameVersion = errors.New("transport: frame version mismatch")

// dialTimeout bounds every TCP dial and the session-open handshake.
const dialTimeout = 5 * time.Second

// kind discriminates the wire frames.
type kind uint8

const (
	// kindOpen (coordinator→worker) registers a session: the worker will
	// play frame.Rank among frame.Peers for session frame.Session.
	kindOpen kind = iota + 1
	// kindOpenAck (worker→coordinator) confirms the registration; no
	// deposit is sent anywhere before every worker has acked, so a
	// worker never sees peer traffic for a session it does not know.
	kindOpenAck
	// kindHello (worker→worker) binds a fresh peer conn to (session,
	// source rank); the conn then carries only kindBlock frames.
	kindHello
	// kindDeposit (coordinator→worker) is one rank's superstep: either p
	// encoded blocks, or (resident) an emit step reference producing them
	// worker-side; an optional collect step reference consumes the
	// assembled column worker-side.
	kindDeposit
	// kindBlock (worker→worker) routes one block to its destination.
	kindBlock
	// kindColumn (worker→coordinator) returns the assembled column — or,
	// for a resident superstep, the collect step's reply plus the element
	// counts the machine folds into its h accounting.
	kindColumn
	// kindStep (coordinator→worker) runs a registered pure step against
	// the session's resident state.
	kindStep
	// kindStepReply (worker→coordinator) returns the step's reply.
	kindStepReply
	// kindError (worker→coordinator) aborts the superstep with a
	// diagnostic (SPMD divergence, lost peer, step failure, protocol
	// violation).
	kindError
	// kindAbort (either direction) poisons the session.
	kindAbort
	// kindFeedOpen (client→worker) binds a fresh connection as an ingest
	// feed for an EXISTING session: a windowed stream of calls to one
	// registered step against that session's resident state. The
	// coordinator-minted unguessable session token doubles as the feed's
	// authentication — a worker only accepts feeds for sessions it
	// already opened. Rank must match the rank the session plays here,
	// Call names the step (args ride per-call), and Share requests a QoS
	// cap on the fraction of worker wall-time the feed may consume.
	kindFeedOpen
	// kindFeedCall (client→worker) is one feed call: Seq orders it, the
	// encoded args ride as the single payload block, exactly like
	// superstep payloads.
	kindFeedCall
	// kindFeedAck (worker→client) acknowledges feed call Seq with the
	// step's encoded reply. Seq 0 acks the open, Seq -1 acks the end.
	kindFeedAck
	// kindFeedEnd (client→worker) ends the feed cleanly after all calls
	// are acknowledged; an abnormal feed teardown (anything but this)
	// aborts the whole session.
	kindFeedEnd
	// kindBeaconOpen (client→worker) subscribes the connection to the
	// worker's health beacon stream: the worker pushes one kindBeacon
	// frame immediately and then one per IntervalNs until the connection
	// closes. The stream carries no session state — it is the health
	// plane's dedicated, always-answerable door.
	kindBeaconOpen
	// kindBeacon (worker→client) is one health sample: liveness proof by
	// arrival; its one payload block is the wire-encoded
	// obscluster.Beacon, registry dump included.
	kindBeacon
)

// kindMax bounds the per-kind counter arrays.
const kindMax = kindBeacon

// opens reports whether a frame of kind k is the first one on its
// connection, the one that carries the version byte.
func (k kind) opens() bool {
	switch k {
	case kindOpen, kindHello, kindFeedOpen, kindBeaconOpen:
		return true
	}
	return false
}

// field is one bit of a layout row; a row's fields go on the wire in bit
// order.
type field uint32

const (
	fSession field = 1 << iota
	fRank
	fSeq
	fStamp
	fType
	fBlocks
	fTrace
	fCall
	fCollect
	fReply
	fNote
	fSent
	fRecv
	fSpans
	fErr
	fPeers
	fShare
	fIntervalNs
)

// layout is the frame table: the fields each kind carries.
var layout = [kindMax + 1]field{
	kindOpen:       fSession | fRank | fPeers,
	kindOpenAck:    fSession | fRank,
	kindHello:      fSession | fRank,
	kindDeposit:    fSession | fRank | fSeq | fStamp | fType | fBlocks | fTrace | fCall | fCollect,
	kindBlock:      fSession | fRank | fSeq | fStamp | fType | fBlocks,
	kindColumn:     fSession | fSeq | fStamp | fBlocks | fReply | fNote | fSent | fRecv | fSpans,
	kindStep:       fSession | fRank | fCall,
	kindStepReply:  fSession | fReply,
	kindError:      fSession | fSeq | fErr,
	kindAbort:      fSession | fErr,
	kindFeedOpen:   fSession | fRank | fCall | fShare,
	kindFeedCall:   fSession | fRank | fSeq | fBlocks,
	kindFeedAck:    fSession | fSeq | fReply,
	kindFeedEnd:    fSession | fSeq,
	kindBeaconOpen: fIntervalNs,
	kindBeacon:     fBlocks,
}

// stepRef names one registered step on the wire, args attached.
type stepRef struct {
	Prog string
	Ver  int
	Step string
	Args []byte
}

// wireRef converts an exec reference plus args for the wire.
func wireRef(ref exec.Ref, args []byte) *stepRef {
	return &stepRef{Prog: ref.Program, Ver: ref.Version, Step: ref.Step, Args: args}
}

// execRef converts back.
func (sr *stepRef) execRef() exec.Ref {
	return exec.Ref{Program: sr.Prog, Version: sr.Ver, Step: sr.Step}
}

// appendRef writes an optional reference: a presence byte, then the
// reference if there is one.
func appendRef(b []byte, sr *stepRef) []byte {
	if sr == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = wire.AppendString(b, sr.Prog)
	b = wire.AppendVarint(b, int64(sr.Ver))
	b = wire.AppendString(b, sr.Step)
	return wire.AppendBytes(b, sr.Args)
}

// decode reads an appendRef-written reference into sr, returning sr, or
// nil if the presence byte says there is none.
func (sr *stepRef) decode(r *wire.Reader, st *strtab) *stepRef {
	if r.Uvarint() != 1 {
		return nil
	}
	sr.Prog = st.str(r.Section())
	sr.Ver = int(r.Varint())
	sr.Step = st.str(r.Section())
	sr.Args = section(r)
	return sr
}

// section reads a byte field as a view, nil if it is empty.
func section(r *wire.Reader) []byte {
	if v := r.Section(); len(v) != 0 {
		return v
	}
	return nil
}

// frame is the single wire message; which fields are meaningful depends
// on Kind (see layout).
type frame struct {
	Kind    kind
	Session string
	Rank    int      // sender rank (Hello/Block), played rank (Open)
	Seq     int      // superstep sequence within the current run
	Stamp   string   // the collective's plain label — with Seq, what the SPMD check compares across ranks
	Type    string   // exchanged element type — likewise
	Peers   []string // Open: worker addresses by rank
	Err     string   // Error/Abort: diagnostic
	Call    *stepRef // Step: the step; Deposit: the emit step (resident)
	Collect *stepRef // Deposit: the collect step (resident)
	Reply   []byte   // StepReply / resident Column: the step's reply
	Note    []byte   // resident Column: the emit step's note
	Sent    int      // resident Column: emit-side element count
	Recv    int      // resident Column: collect-side element count
	// Trace is the machine's trace stamp for this superstep (Deposit; 0 =
	// untraced) and Spans the worker-side spans it produced (Column).
	Trace uint64
	Spans []obs.Span
	// Share is the client-requested ingest QoS cap (FeedOpen; 0 =
	// uncapped). The worker combines it with its own operator cap.
	Share float64
	// IntervalNs is the requested beacon period (BeaconOpen; 0 = the
	// worker's default).
	IntervalNs int64

	// blocks is the frame's payload (Deposit: p blocks; Block: 1; Column:
	// p; FeedCall: 1; Beacon: 1) — written straight from the deposit's
	// (pooled) buffers, read back as views into the received frame body.
	// A received frame's blocks alias that body, so they stay valid for as
	// long as anything references them (the body is a per-frame
	// allocation, never reused).
	blocks [][]byte

	// refs holds a received frame's Call and Collect, so decoding them
	// costs no allocation beyond the frame's own.
	refs [2]stepRef
}

// appendFrame appends fr's body to b: the fields of its kind's layout
// row, in bit order.
func appendFrame(b []byte, fr *frame) []byte {
	b = append(b, byte(fr.Kind))
	if fr.Kind.opens() {
		b = append(b, frameVersion)
	}
	row := layout[fr.Kind]
	if row&fSession != 0 {
		b = wire.AppendString(b, fr.Session)
	}
	if row&fRank != 0 {
		b = wire.AppendVarint(b, int64(fr.Rank))
	}
	if row&fSeq != 0 {
		b = wire.AppendVarint(b, int64(fr.Seq))
	}
	if row&fStamp != 0 {
		b = wire.AppendString(b, fr.Stamp)
	}
	if row&fType != 0 {
		b = wire.AppendString(b, fr.Type)
	}
	if row&fBlocks != 0 {
		b = wire.AppendUvarint(b, uint64(len(fr.blocks)))
		for _, blk := range fr.blocks {
			if blk == nil {
				b = append(b, 0)
				continue
			}
			b = wire.AppendUvarint(b, uint64(len(blk))+1)
			b = append(b, blk...)
		}
	}
	if row&fTrace != 0 {
		b = wire.AppendUvarint(b, fr.Trace)
	}
	if row&fCall != 0 {
		b = appendRef(b, fr.Call)
	}
	if row&fCollect != 0 {
		b = appendRef(b, fr.Collect)
	}
	if row&fReply != 0 {
		b = wire.AppendBytes(b, fr.Reply)
	}
	if row&fNote != 0 {
		b = wire.AppendBytes(b, fr.Note)
	}
	if row&fSent != 0 {
		b = wire.AppendVarint(b, int64(fr.Sent))
	}
	if row&fRecv != 0 {
		b = wire.AppendVarint(b, int64(fr.Recv))
	}
	if row&fSpans != 0 {
		b = wire.AppendUvarint(b, uint64(len(fr.Spans)))
		for i := range fr.Spans {
			sp := &fr.Spans[i]
			b = wire.AppendUvarint(b, sp.Trace)
			b = wire.AppendVarint(b, sp.Stamp)
			b = wire.AppendString(b, sp.Name)
			b = wire.AppendVarint(b, int64(sp.Rank))
			b = wire.AppendVarint(b, sp.Start)
			b = wire.AppendVarint(b, sp.Dur)
			b = wire.AppendVarint(b, sp.Bytes)
		}
	}
	if row&fErr != 0 {
		b = wire.AppendString(b, fr.Err)
	}
	if row&fPeers != 0 {
		b = wire.AppendUvarint(b, uint64(len(fr.Peers)))
		for _, p := range fr.Peers {
			b = wire.AppendString(b, p)
		}
	}
	if row&fShare != 0 {
		b = wire.AppendF64(b, fr.Share)
	}
	if row&fIntervalNs != 0 {
		b = wire.AppendVarint(b, fr.IntervalNs)
	}
	return b
}

// minSpanBytes is the least a span occupies on the wire: seven fields of
// at least one byte each.
const minSpanBytes = 7

// decodeFrame parses one frame body into fr (zero-valued). Every count
// and length is checked against the bytes left, so a hostile body returns
// an error and never panics or over-allocates. Byte fields and blocks
// are views into body, nil when empty, as are empty lists; repeated
// strings come from st.
func decodeFrame(body []byte, fr *frame, st *strtab) error {
	if len(body) == 0 {
		return errors.New("transport: empty frame")
	}
	k := kind(body[0])
	if k == 0 || k > kindMax {
		return fmt.Errorf("transport: unknown frame kind %d", k)
	}
	body = body[1:]
	if k.opens() {
		if len(body) == 0 {
			return fmt.Errorf("transport: %s frame without its version byte", kindNames[k])
		}
		if body[0] != frameVersion {
			return fmt.Errorf("%w: the peer sent version %d, this binary speaks version %d (a coordinator and rangeworker from different builds?)",
				errFrameVersion, body[0], frameVersion)
		}
		body = body[1:]
	}
	fr.Kind = k
	row := layout[k]
	r := wire.NewReader(body)
	if row&fSession != 0 {
		fr.Session = st.str(r.Section())
	}
	if row&fRank != 0 {
		fr.Rank = int(r.Varint())
	}
	if row&fSeq != 0 {
		fr.Seq = int(r.Varint())
	}
	if row&fStamp != 0 {
		fr.Stamp = st.str(r.Section())
	}
	if row&fType != 0 {
		fr.Type = st.str(r.Section())
	}
	if row&fBlocks != 0 {
		if n := r.Count(1); n != 0 {
			fr.blocks = make([][]byte, n)
		}
		for i := range fr.blocks {
			v := r.Uvarint()
			if v == 0 {
				continue // nil slot
			}
			fr.blocks[i] = r.Bytes(int(v - 1)) // a length past the end (or past MaxInt) fails r
		}
	}
	if row&fTrace != 0 {
		fr.Trace = r.Uvarint()
	}
	if row&fCall != 0 {
		fr.Call = fr.refs[0].decode(&r, st)
	}
	if row&fCollect != 0 {
		fr.Collect = fr.refs[1].decode(&r, st)
	}
	if row&fReply != 0 {
		fr.Reply = section(&r)
	}
	if row&fNote != 0 {
		fr.Note = section(&r)
	}
	if row&fSent != 0 {
		fr.Sent = int(r.Varint())
	}
	if row&fRecv != 0 {
		fr.Recv = int(r.Varint())
	}
	if row&fSpans != 0 {
		if n := r.Count(minSpanBytes); n != 0 {
			fr.Spans = make([]obs.Span, n)
		}
		for i := range fr.Spans {
			sp := &fr.Spans[i]
			sp.Trace = r.Uvarint()
			sp.Stamp = r.Varint()
			sp.Name = st.str(r.Section())
			sp.Rank = int(r.Varint())
			sp.Start = r.Varint()
			sp.Dur = r.Varint()
			sp.Bytes = r.Varint()
		}
	}
	if row&fErr != 0 {
		fr.Err = r.Str()
	}
	if row&fPeers != 0 {
		if n := r.Count(1); n != 0 {
			fr.Peers = make([]string, n)
		}
		for i := range fr.Peers {
			fr.Peers[i] = r.Str()
		}
	}
	if row&fShare != 0 {
		fr.Share = r.F64()
	}
	if row&fIntervalNs != 0 {
		fr.IntervalNs = r.Varint()
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("transport: decoding %s frame: %w", kindNames[k], err)
	}
	return nil
}

// maxInterned bounds one connection's intern table: a well-behaved peer
// repeats a few dozen strings, and a hostile one cannot grow it further.
const maxInterned = 256

// strtab interns the strings a connection repeats — session ID, stamp
// labels, element types, step and span names — so a steady-state frame
// allocates only its body, its frame and its block slice. It belongs to
// the connection's one reader.
type strtab struct{ m map[string]string }

func (t *strtab) str(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t.m) < maxInterned {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// fconn frames one TCP connection. Writes are serialized by a mutex (the
// rank goroutine and Abort may race); reads follow the protocol's
// one-reader-per-connection discipline. Optional atomic counters observe
// the raw bytes moved (the cluster bench's coordinator-traffic metric)
// and the per-kind frame traffic.
type fconn struct {
	c net.Conn

	wmu  sync.Mutex
	wbuf []byte
	wn   *atomic.Int64

	br   *bufio.Reader
	hdr  [4]byte
	strs strtab
	rn   *atomic.Int64

	kc *kindCounters
}

func newFConn(c net.Conn) *fconn {
	return &fconn{c: c, br: bufio.NewReader(c)}
}

// count wires the byte counters (coordinator conns only).
func (f *fconn) count(out, in *atomic.Int64) *fconn {
	f.wn, f.rn = out, in
	return f
}

// kinds wires the per-kind frame counters (both directions).
func (f *fconn) kinds(kc *kindCounters) *fconn {
	f.kc = kc
	return f
}

func (f *fconn) write(fr *frame) error {
	_, err := f.writeN(fr)
	return err
}

// writeN writes one frame and reports its full framed size (length
// prefix + body) — the per-query cost attribution's byte source, the same
// number the coordinator byte counters see.
func (f *fconn) writeN(fr *frame) (int, error) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	b := appendFrame(append(f.wbuf[:0], 0, 0, 0, 0), fr)
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if f.wn != nil {
		f.wn.Add(int64(len(b)))
	}
	if f.kc != nil {
		f.kc.add(fr.Kind, int64(len(b)))
	}
	n := len(b)
	_, err := f.c.Write(b)
	if cap(b) > maxRetainedBuf {
		// Don't let one huge block frame pin its peak size for the
		// connection's lifetime (store-level conns live for hours).
		b = nil
	}
	f.wbuf = b
	return n, err
}

// maxRetainedBuf bounds the write buffer capacity a connection keeps
// between frames; steady-state control frames are far smaller.
const maxRetainedBuf = 1 << 20

func (f *fconn) read() (*frame, error) {
	fr, _, err := f.readN()
	return fr, err
}

// readN reads one frame and reports its full framed size — writeN's
// receiving-side counterpart. The body is the frame's own allocation:
// its blocks and byte fields are views into it, and nothing on the
// connection keeps it once the frame is dropped.
func (f *fconn) readN() (*frame, int, error) {
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(f.hdr[:])
	if n > maxFrame {
		return nil, 0, fmt.Errorf("transport: frame of %d bytes exceeds the %d limit", n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(f.br, body); err != nil {
		return nil, 0, err
	}
	if f.rn != nil {
		f.rn.Add(int64(n) + 4)
	}
	fr := new(frame)
	if err := decodeFrame(body, fr, &f.strs); err != nil {
		return nil, 0, err
	}
	if f.kc != nil {
		f.kc.add(fr.Kind, int64(n)+4)
	}
	return fr, int(n) + 4, nil
}

func (f *fconn) close() error { return f.c.Close() }

// FrameStat counts one frame kind's traffic on one side of the wire:
// frames moved (both directions) and their full framed bytes (length
// prefix + body, payload blocks included).
type FrameStat struct {
	Frames int64
	Bytes  int64
}

// kindCounters accumulates per-kind frame traffic atomically; one
// instance is shared by all connections of a Cluster or Worker.
type kindCounters struct {
	frames [kindMax + 1]atomic.Int64
	bytes  [kindMax + 1]atomic.Int64
}

func (kc *kindCounters) add(k kind, n int64) {
	if int(k) < len(kc.frames) {
		kc.frames[k].Add(1)
		kc.bytes[k].Add(n)
	}
}

// kindNames labels the stats map; indexes match the kind constants.
var kindNames = [kindMax + 1]string{
	kindOpen: "open", kindOpenAck: "open_ack", kindHello: "hello",
	kindDeposit: "deposit", kindBlock: "block", kindColumn: "column",
	kindStep: "step", kindStepReply: "step_reply",
	kindError: "error", kindAbort: "abort",
	kindFeedOpen: "feed_open", kindFeedCall: "feed_call",
	kindFeedAck: "feed_ack", kindFeedEnd: "feed_end",
	kindBeaconOpen: "beacon_open", kindBeacon: "beacon",
}

// snapshot returns the non-zero per-kind stats.
func (kc *kindCounters) snapshot() map[string]FrameStat {
	out := make(map[string]FrameStat)
	for k := range kc.frames {
		fr, by := kc.frames[k].Load(), kc.bytes[k].Load()
		if fr == 0 && by == 0 {
			continue
		}
		out[kindNames[k]] = FrameStat{Frames: fr, Bytes: by}
	}
	return out
}
