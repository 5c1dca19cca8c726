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
// destination) pair, to route blocks. Wire format: every frame is a
// 4-byte big-endian length prefix, one gob message stream for the control
// fields, then the frame's payload blocks raw — uvarint-framed sections
// appended after the gob body, so the already-encoded blocks (see
// internal/wire) are never re-encoded through gob on the way down and are
// sliced straight out of the received frame body on the way up, views
// rather than copies. Each connection keeps ONE encoder/decoder pair for
// its lifetime, so gob type descriptors cross once per connection instead
// of once per frame — framing stays self-delimiting (the length prefix),
// decoding stays streaming (frames must be read in order, which the
// one-reader-per-connection protocol already guarantees).
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	obscluster "repro/internal/obs/cluster"
)

// maxFrame bounds a single frame (1 GiB) so a corrupt length prefix
// cannot ask for an absurd allocation.
const maxFrame = 1 << 30

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
	// encoded args ride as the single out-of-band payload block — never
	// through gob, exactly like superstep payloads.
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
	// arrival, worker registry dump by payload (frame.Beacon).
	kindBeacon
)

// kindMax bounds the per-kind counter arrays.
const kindMax = kindBeacon

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

// frame is the single wire message; which fields are meaningful depends
// on Kind.
type frame struct {
	Kind    kind
	Session string
	Rank    int      // sender rank (Hello/Block), played rank (Open)
	Seq     int      // superstep sequence within the current run
	Stamp   string   // the collective's plain label — with Seq, what the SPMD check compares across ranks
	Type    string   // exchanged element type — likewise
	NB      int      // number of out-of-band payload blocks after the gob body
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
	// Both are zero-valued on the untraced hot path, which gob omits
	// entirely — tracing costs no wire bytes until a query is traced.
	Trace uint64
	Spans []obs.Span
	// Share is the client-requested ingest QoS cap (FeedOpen; 0 =
	// uncapped). The worker combines it with its own operator cap.
	Share float64
	// IntervalNs is the requested beacon period (BeaconOpen; 0 = the
	// worker's default) and Beacon the health sample (Beacon frames).
	// Like Trace/Spans these are zero on every other frame kind, which
	// gob omits entirely — the health plane costs session traffic nothing.
	IntervalNs int64
	Beacon     *obscluster.Beacon

	// blocks is the frame's payload (Deposit: p blocks; Block: 1;
	// Column: p). Unexported on purpose: gob skips it, and the framing
	// layer carries the blocks raw after the gob body — written straight
	// from the deposit's (pooled) buffers, read back as views into the
	// received frame body. A received frame's blocks alias that body, so
	// they stay valid for as long as anything references them (the body is
	// a per-frame allocation, never reused).
	blocks [][]byte
}

// fconn frames one TCP connection. Writes are serialized by a mutex (the
// rank goroutine and Abort may race); reads follow the protocol's
// one-reader-per-connection discipline. The persistent encoder/decoder
// pair means gob type descriptors are sent exactly once per connection.
// Optional atomic counters observe the raw bytes moved (the cluster
// bench's coordinator-traffic metric) and the per-kind frame traffic.
type fconn struct {
	c net.Conn

	wmu  sync.Mutex
	wbuf bytes.Buffer
	enc  *gob.Encoder
	wn   *atomic.Int64

	br  *bufio.Reader
	rd  chunkReader
	dec *gob.Decoder
	rn  *atomic.Int64

	kc *kindCounters
}

func newFConn(c net.Conn) *fconn {
	f := &fconn{c: c}
	f.enc = gob.NewEncoder(&f.wbuf)
	f.br = bufio.NewReader(c)
	f.dec = gob.NewDecoder(&f.rd)
	return f
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
// prefix + gob body + block sections) — the per-query cost attribution's
// byte source, the same number the coordinator byte counters see.
func (f *fconn) writeN(fr *frame) (int, error) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.wbuf.Reset()
	f.wbuf.Write([]byte{0, 0, 0, 0})
	fr.NB = len(fr.blocks)
	if err := f.enc.Encode(fr); err != nil {
		return 0, fmt.Errorf("transport: encoding frame: %w", err)
	}
	// The payload blocks ride after the gob body, each framed as
	// uvarint(len+1) + bytes with 0 marking a nil slot — already-encoded
	// blocks are appended verbatim, never re-encoded through gob.
	var vb [binary.MaxVarintLen64]byte
	for _, blk := range fr.blocks {
		if blk == nil {
			f.wbuf.WriteByte(0)
			continue
		}
		f.wbuf.Write(vb[:binary.PutUvarint(vb[:], uint64(len(blk))+1)])
		f.wbuf.Write(blk)
	}
	b := f.wbuf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if f.wn != nil {
		f.wn.Add(int64(len(b)))
	}
	if f.kc != nil {
		f.kc.add(fr.Kind, int64(len(b)))
	}
	n := len(b)
	_, err := f.c.Write(b)
	if f.wbuf.Cap() > maxRetainedBuf {
		// Don't let one huge block frame pin its peak size for the
		// connection's lifetime (store-level conns live for hours). The
		// encoder writes through &f.wbuf, so zeroing the struct in place
		// keeps it valid — only the storage is surrendered to the GC.
		f.wbuf = bytes.Buffer{}
	}
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
// receiving-side counterpart.
func (f *fconn) readN() (*frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(f.br, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
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
	f.rd.reset(body)
	var fr frame
	err := f.dec.Decode(&fr)
	if err != nil {
		f.rd.reset(nil)
		return nil, 0, fmt.Errorf("transport: decoding frame: %w", err)
	}
	// Slice the payload blocks out of the frame body: views, not copies.
	// The body is this frame's own allocation, so the views stay valid for
	// as long as the blocks are referenced.
	if fr.NB > 0 {
		rest := body[f.rd.off:]
		off := 0
		fr.blocks = make([][]byte, fr.NB)
		for i := range fr.blocks {
			v, vn := binary.Uvarint(rest[off:])
			if vn <= 0 {
				f.rd.reset(nil)
				return nil, 0, fmt.Errorf("transport: corrupt block section %d of %d", i, fr.NB)
			}
			off += vn
			if v == 0 {
				continue // nil slot
			}
			l := int(v - 1)
			if l > len(rest)-off {
				f.rd.reset(nil)
				return nil, 0, fmt.Errorf("transport: block section %d overruns the frame (%d of %d bytes left)", i, l, len(rest)-off)
			}
			fr.blocks[i] = rest[off : off+l : off+l]
			off += l
		}
		if off != len(rest) {
			f.rd.reset(nil)
			return nil, 0, fmt.Errorf("transport: %d trailing bytes after block sections", len(rest)-off)
		}
	}
	f.rd.reset(nil) // don't pin a large frame body on an idle connection
	if f.kc != nil {
		f.kc.add(fr.Kind, int64(n)+4)
	}
	return &fr, int(n) + 4, nil
}

func (f *fconn) close() error { return f.c.Close() }

// FrameStat counts one frame kind's traffic on one side of the wire:
// frames moved (both directions) and their full framed bytes (length
// prefix + gob body + payload block sections).
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

// chunkReader feeds the persistent gob decoder exactly one frame body at
// a time. Implementing io.ByteReader keeps gob from wrapping it in a
// bufio.Reader that could read past the frame boundary.
type chunkReader struct {
	body []byte
	off  int
}

func (cr *chunkReader) reset(body []byte) { cr.body, cr.off = body, 0 }

func (cr *chunkReader) Read(p []byte) (int, error) {
	if cr.off >= len(cr.body) {
		return 0, io.EOF
	}
	n := copy(p, cr.body[cr.off:])
	cr.off += n
	return n, nil
}

func (cr *chunkReader) ReadByte() (byte, error) {
	if cr.off >= len(cr.body) {
		return 0, io.EOF
	}
	b := cr.body[cr.off]
	cr.off++
	return b, nil
}
