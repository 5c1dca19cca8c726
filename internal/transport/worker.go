package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Worker is one node of the multicomputer: a TCP listener that plays one
// rank per session. For every session it receives deposits from its
// coordinator, routes each block to the peer worker owning the
// destination rank, collects the blocks addressed to its own rank from
// all peers, validates the SPMD stamps across them, and returns the
// assembled column. Under resident execution the session additionally
// owns a state store of registered SPMD programs: the rank's forest part
// lives here, step frames run against it, and resident supersteps
// originate/terminate their payloads in it. A worker serves any number
// of sessions concurrently (the store keeps one machine — one session —
// per level tree, plus transient ones for compaction builds).
type Worker struct {
	ln net.Listener

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[net.Conn]struct{} // every accepted conn still being served
	closed   bool
	admin    *obs.Admin

	kc    kindCounters
	reg   *obs.Registry
	epoch time.Time

	// lastLabel and lastSeq stamp the most recent superstep any session
	// served — beacon payload, so the health plane can see where a worker
	// is in the superstep sequence without scraping it. Only the pair is
	// kept (a deposit would pin its frame body), and the stamp is spelled
	// when a beacon is built, not once per superstep.
	lastMu    sync.Mutex
	lastLabel string
	lastSeq   int
	served    bool

	// ingestShare is the operator cap on any single ingest feed's share
	// of wall-time (math.Float64bits; 0 = client-requested share only).
	ingestShare atomic.Uint64

	// quit closes when the worker shuts down, unblocking beacon tickers
	// promptly (their conns close too, but a sleeping ticker would
	// otherwise hold Close's wg.Wait for up to one beacon interval).
	quit chan struct{}

	wg sync.WaitGroup
}

// ListenAndServe starts a worker on addr (e.g. "127.0.0.1:0" for an
// ephemeral test port) and serves in the background until Close.
func ListenAndServe(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: worker listen %s: %w", addr, err)
	}
	w := &Worker{ln: ln, sessions: make(map[string]*session), conns: make(map[net.Conn]struct{}),
		reg: obs.NewRegistry(), epoch: time.Now(), quit: make(chan struct{})}
	w.reg.Func("worker_sessions", func() float64 { return float64(w.Sessions()) })
	w.reg.Collect(func(emit obs.Emit) {
		for k, st := range w.kc.snapshot() {
			emit(fmt.Sprintf("worker_frames_total{kind=%q}", k), float64(st.Frames))
			emit(fmt.Sprintf("worker_frame_bytes_total{kind=%q}", k), float64(st.Bytes))
		}
	})
	// Codec counters on the worker's own /metrics: the zero-gob claim of
	// the raw wire path is assertable per process, not just coordinator-
	// side (the CI cluster smoke greps these rows).
	w.reg.Collect(wire.EmitStats)
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Obs returns the worker's metrics registry: per-frame-kind traffic,
// session count, and superstep counters/latency, live.
func (w *Worker) Obs() *obs.Registry { return w.reg }

// now is the worker's span clock: nanoseconds since the worker started.
func (w *Worker) now() int64 { return int64(time.Since(w.epoch)) }

// setLast records the stamp of a superstep being served.
func (w *Worker) setLast(label string, seq int) {
	w.lastMu.Lock()
	w.lastLabel, w.lastSeq, w.served = label, seq, true
	w.lastMu.Unlock()
}

// lastStamp spells the most recent superstep's stamp ("" before any).
func (w *Worker) lastStamp() string {
	w.lastMu.Lock()
	defer w.lastMu.Unlock()
	if !w.served {
		return ""
	}
	return cgm.StampOf(w.lastLabel, w.lastSeq)
}

// EnableDebug mounts the worker's admin HTTP server (metrics, healthz,
// expvar, pprof) on addr and returns the bound address. The listener is
// owned by the worker: Worker.Close shuts it down synchronously.
func (w *Worker) EnableDebug(addr string) (string, error) {
	a, err := obs.ServeAdmin(addr, w.reg, w.health)
	if err != nil {
		return "", err
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		a.Close()
		return "", errors.New("transport: worker closed")
	}
	w.admin = a
	w.mu.Unlock()
	return a.Addr(), nil
}

// health is the /healthz snapshot: the worker's listen address, live
// session count, and the rank each session plays (sorted for stable
// output), so an operator can see at a glance which machines touch this
// node and as which rank.
func (w *Worker) health() any {
	w.mu.Lock()
	type sessInfo struct {
		ID   string `json:"id"`
		Rank int    `json:"rank"`
		P    int    `json:"p"`
	}
	infos := make([]sessInfo, 0, len(w.sessions))
	for id, s := range w.sessions {
		infos = append(infos, sessInfo{ID: id, Rank: s.rank, P: s.p})
	}
	closed := w.closed
	w.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return obs.Health{
		OK: !closed,
		Detail: map[string]any{
			"addr":     w.Addr(),
			"closed":   closed,
			"sessions": len(infos),
			"ranks":    infos,
		},
	}
}

// Addr reports the worker's bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Close stops the listener and tears down every live session (open
// connections are closed, which the coordinator surfaces as a machine
// abort; resident state dies with its session). It is idempotent and
// waits for all worker goroutines to exit.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.wg.Wait()
		return nil
	}
	w.closed = true
	close(w.quit)
	admin := w.admin
	w.admin = nil
	live := make([]*session, 0, len(w.sessions))
	for _, s := range w.sessions {
		live = append(live, s)
	}
	// Accepted conns include incoming peer-block conns of idle sessions:
	// their feedPeer goroutines sit in blocking reads that only a local
	// close can end (the remote side has no reason to hang up), so Close
	// must sever every conn it ever accepted, not just session state.
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	admin.Close() // synchronous: the debug listener's goroutine is gone after this
	err := w.ln.Close()
	for _, s := range live {
		s.shutdown()
	}
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	return err
}

// WireStats reports this worker's cumulative traffic by frame kind, both
// directions, across every connection it served or dialed (coordinator
// sessions and the worker-to-worker mesh alike). The mesh's kindBlock row
// is the direct observation of resident mode's point: payload moving
// worker-to-worker instead of through the coordinator.
func (w *Worker) WireStats() map[string]FrameStat {
	return w.kc.snapshot()
}

// Sessions reports the number of live sessions (health/diagnostics).
func (w *Worker) Sessions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sessions)
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handshake(conn)
	}
}

// handshake reads the first frame of a fresh connection and dispatches:
// a coordinator opening a session, or a peer worker binding a block
// stream. Anything else (including a bare probe that closes immediately)
// just drops the connection.
func (w *Worker) handshake(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	fc := newFConn(conn).kinds(&w.kc)
	f, err := fc.read()
	if err != nil {
		if errors.Is(err, errFrameVersion) {
			// Tell a binary from another build why, rather than hang up on it.
			fc.write(&frame{Kind: kindError, Err: err.Error()})
		}
		conn.Close()
		return
	}
	switch f.Kind {
	case kindOpen:
		w.runSession(fc, f)
	case kindHello:
		w.feedPeer(fc, f)
	case kindFeedOpen:
		w.runFeed(fc, f)
	case kindBeaconOpen:
		w.runBeacon(fc, f)
	default:
		conn.Close()
	}
}

// inMsg is one routed block (or a peer failure) delivered to a session.
type inMsg struct {
	from       int
	seq        int
	label, typ string
	block      []byte
	err        error
}

// session is one machine's presence on this worker: the rank it plays,
// the coordinator connection, the per-peer block conns, and the resident
// state store of registered programs.
type session struct {
	w     *Worker
	id    string
	rank  int
	p     int
	peers []string
	coord *fconn
	inbox chan inMsg
	store *exec.Store

	mu    sync.Mutex // guards outs and feeds against shutdown
	outs  []*fconn   // lazily dialed conns to peers (nil = not yet, self never)
	feeds []*fconn   // live ingest feed conns bound to this session

	// Superstep state, reused by every superstep of the session (they run
	// one at a time, on the session goroutine): the column being gathered,
	// the ranks it holds, and the job handed to the route goroutine.
	column  [][]byte
	seen    []bool
	in      exec.Inbox // the column as a collect step reads it
	route   routeJob
	routeGo chan struct{} // route holds a job
	routed  chan error    // the route goroutine's verdict on it
	// lost is a peer conn's failure that arrived after that peer's block
	// for the superstep in progress; the next superstep fails with it.
	lost error

	quit  chan struct{}
	quit1 sync.Once
}

// routeJob is one superstep's sending half: the deposit's stamp and the
// block for each peer, plus the window the route goroutine spent on it.
type routeJob struct {
	seq        int
	stamp, typ string
	blocks     [][]byte
	start, end int64
}

// runSession registers the session and serves its coordinator connection
// until it closes, aborts, or a superstep fails.
func (w *Worker) runSession(fc *fconn, open *frame) {
	if len(open.Peers) == 0 || open.Rank < 0 || open.Rank >= len(open.Peers) {
		fc.write(&frame{Kind: kindError, Session: open.Session,
			Err: fmt.Sprintf("transport: malformed open: rank %d of %d peers", open.Rank, len(open.Peers))})
		fc.close()
		return
	}
	s := &session{
		w: w, id: open.Session, rank: open.Rank, p: len(open.Peers), peers: open.Peers,
		coord:   fc,
		inbox:   make(chan inMsg, 4*len(open.Peers)+4),
		store:   exec.NewStore(),
		outs:    make([]*fconn, len(open.Peers)),
		column:  make([][]byte, len(open.Peers)),
		seen:    make([]bool, len(open.Peers)),
		routeGo: make(chan struct{}),
		routed:  make(chan error, 1),
		quit:    make(chan struct{}),
	}
	s.store.SetObs(w.reg)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		fc.close()
		return
	}
	if _, dup := w.sessions[s.id]; dup {
		w.mu.Unlock()
		fc.write(&frame{Kind: kindError, Session: s.id,
			Err: fmt.Sprintf("transport: session %q already open on this worker", s.id)})
		fc.close()
		return
	}
	w.sessions[s.id] = s
	w.mu.Unlock()
	defer s.shutdown()
	w.wg.Add(1)
	go s.routeLoop()

	if err := fc.write(&frame{Kind: kindOpenAck, Session: s.id, Rank: s.rank}); err != nil {
		return
	}
	// Coordinator frames arrive through a dedicated reader goroutine so
	// that losing the coordinator conn unblocks a superstep stuck in its
	// collect: an abort can hit before some rank's first deposit of a
	// run, in which case that rank's worker never dialed peers and
	// nothing else would ever break the other sessions' collects.
	frames := make(chan *frame)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			f, err := fc.read()
			if err != nil {
				s.shutdown() // coordinator went away: end any collect in flight
				return
			}
			select {
			case frames <- f:
			case <-s.quit:
				return
			}
		}
	}()
	for {
		var f *frame
		select {
		case f = <-frames:
		case <-s.quit:
			return
		}
		switch f.Kind {
		case kindDeposit:
			if err := s.superstep(f); err != nil {
				fc.write(&frame{Kind: kindError, Session: s.id, Seq: f.Seq, Err: err.Error()})
				return
			}
		case kindStep:
			if f.Call == nil {
				fc.write(&frame{Kind: kindError, Session: s.id, Err: "transport: step frame without a step reference"})
				return
			}
			reply, err := s.store.Call(s.rank, s.p, f.Call.execRef(), f.Call.Args)
			if err != nil {
				fc.write(&frame{Kind: kindError, Session: s.id, Err: err.Error()})
				return
			}
			if err := fc.write(&frame{Kind: kindStepReply, Session: s.id, Reply: reply}); err != nil {
				return
			}
		case kindAbort:
			return
		default:
			fc.write(&frame{Kind: kindError, Session: s.id,
				Err: fmt.Sprintf("transport: unexpected frame kind %d from coordinator", f.Kind)})
			return
		}
	}
}

// superstep routes one deposit's blocks to the peer workers, collects the
// blocks every peer addressed to this rank, validates the SPMD stamps
// across all of them, and answers the coordinator. For a fabric deposit
// the answer is the assembled column; a resident deposit instead runs its
// emit step (payload out of worker memory) and/or collect step (payload
// into worker memory), answering with the collect reply and the element
// counts.
func (s *session) superstep(dep *frame) error {
	stepStart := s.w.now()
	s.w.setLast(dep.Stamp, dep.Seq)
	if s.lost != nil {
		return s.lost
	}
	// Worker-side spans for a traced superstep ride back on the column
	// frame. They are appended only from this goroutine: the route
	// goroutine's window is published through s.routed (the channel
	// receive orders its writes before the append). A span's name is
	// concatenated only when the superstep is traced.
	var spans []obs.Span
	span := func(name, step string, start, end int64) {
		if dep.Trace == 0 {
			return
		}
		spans = append(spans, obs.Span{Trace: dep.Trace, Stamp: int64(dep.Seq),
			Name: name + step, Rank: s.rank, Start: start, Dur: end - start})
	}
	blocks := dep.blocks
	typ := dep.Type
	sent := 0
	var selfPayload any
	var note []byte
	if dep.Call != nil { // resident emit
		t0 := s.w.now()
		out, err := s.store.RunEmit(s.rank, s.p, dep.Call.execRef(), dep.Call.Args)
		if err != nil {
			return err
		}
		span("emit:", dep.Call.Step, t0, s.w.now())
		blocks, typ, selfPayload, note = out.Blocks, out.Type, out.Self, out.Note
		for _, c := range out.Counts {
			sent += c
		}
	}
	if len(blocks) != s.p {
		return fmt.Errorf("transport: deposit carries %d blocks for %d ranks", len(blocks), s.p)
	}
	s.route = routeJob{seq: dep.Seq, stamp: dep.Stamp, typ: typ, blocks: blocks}
	select {
	case s.routeGo <- struct{}{}:
	case <-s.quit:
		return errShuttingDown
	}
	defer clear(s.column) // don't pin the peers' frame bodies between supersteps
	gatherStart := s.w.now()
	// The self-addressed slot: nil for a fabric deposit (the coordinator
	// retains its own block) and for a resident emit (the payload stays
	// typed in selfPayload); a resident collect of a coordinator deposit
	// ships it encoded like any other block.
	err := s.gather(dep.Seq, dep.Stamp, typ, blocks[s.rank])
	gatherEnd := s.w.now()
	// Wait for the route even when the gather failed: the session shuts
	// down on return, closing the peer conns, and a block still in flight
	// would reach its peer as a lost connection instead of as the block
	// that shows the peer this superstep's divergence.
	routeErr := <-s.routed
	route := s.route
	s.route = routeJob{}
	if err != nil {
		return err
	}
	if routeErr != nil {
		return routeErr
	}
	span("gather", "", gatherStart, gatherEnd)
	span("route", "", route.start, route.end)
	defer func() {
		s.w.reg.Counter("worker_supersteps_total").Inc()
		s.w.reg.Histogram("worker_superstep_ns").Observe(s.w.now() - stepStart)
	}()
	if dep.Collect != nil { // resident collect
		t0 := s.w.now()
		s.in = exec.Inbox{Blocks: s.column, Self: selfPayload}
		reply, recv, err := s.store.RunCollect(s.rank, s.p, dep.Collect.execRef(), &s.in, dep.Collect.Args)
		s.in = exec.Inbox{}
		if err != nil {
			return err
		}
		span("collect:", dep.Collect.Step, t0, s.w.now())
		return s.coord.write(&frame{Kind: kindColumn, Session: s.id, Seq: dep.Seq, Stamp: dep.Stamp,
			Reply: reply, Note: note, Sent: sent, Recv: recv, Spans: spans})
	}
	return s.coord.write(&frame{Kind: kindColumn, Session: s.id, Seq: dep.Seq, Stamp: dep.Stamp,
		blocks: s.column, Spans: spans})
}

var errShuttingDown = errors.New("transport: worker shutting down")

// gather collects into s.column the block every peer addressed to this
// rank for superstep (seq, label), checking each block's SPMD stamp and
// element type against this rank's own.
func (s *session) gather(seq int, label, typ string, self []byte) error {
	clear(s.seen)
	s.column[s.rank] = self
	s.seen[s.rank] = true
	for need := s.p - 1; need > 0; {
		select {
		case msg := <-s.inbox:
			if msg.err != nil {
				if s.seen[msg.from] {
					// The peer's block for this superstep came first, so its
					// conn broke after the peer was done here — typically as
					// it shuts down to report its own diagnostic, which must
					// not be outranked. This superstep completes; the next
					// one fails on the loss.
					s.lost = msg.err
					continue
				}
				return msg.err
			}
			if msg.seq != seq {
				return fmt.Errorf("SPMD violation: rank %d deposited superstep %d (%q) while rank %d is at superstep %d (%q)",
					msg.from, msg.seq, cgm.StampOf(msg.label, msg.seq), s.rank, seq, cgm.StampOf(label, seq))
			}
			if msg.label != label {
				return fmt.Errorf("SPMD violation: processor %d is at %q while processor %d is at %q",
					msg.from, cgm.StampOf(msg.label, msg.seq), s.rank, cgm.StampOf(label, seq))
			}
			if msg.typ != typ {
				return fmt.Errorf("SPMD violation: processor %d exchanged %s at %q where processor %d exchanged %s",
					msg.from, msg.typ, cgm.StampOf(label, seq), s.rank, typ)
			}
			if s.seen[msg.from] {
				return fmt.Errorf("transport: duplicate block from rank %d at %q", msg.from, cgm.StampOf(label, seq))
			}
			s.seen[msg.from] = true
			s.column[msg.from] = msg.block
			need--
		case <-s.quit:
			return errShuttingDown
		}
	}
	return nil
}

// routeLoop is the session's sending half: for each superstep it writes
// the job's blocks to the peers while the session goroutine gathers, so
// two workers shipping large blocks to each other cannot deadlock on full
// TCP buffers. It exits when the session shuts down.
func (s *session) routeLoop() {
	defer s.w.wg.Done()
	for {
		select {
		case <-s.routeGo:
		case <-s.quit:
			return
		}
		s.routed <- s.routeOnce()
	}
}

// routeOnce writes one kindBlock frame per peer, all from one header and
// a one-slot block array.
func (s *session) routeOnce() error {
	rt := &s.route
	rt.start = s.w.now()
	hdr := frame{Kind: kindBlock, Session: s.id, Rank: s.rank, Seq: rt.seq, Stamp: rt.stamp, Type: rt.typ}
	var one [1][]byte
	hdr.blocks = one[:]
	for j := range s.peers {
		if j == s.rank {
			continue
		}
		out, err := s.peerConn(j)
		if err == nil {
			one[0] = rt.blocks[j]
			err = out.write(&hdr)
		}
		if err != nil {
			return fmt.Errorf("transport: rank %d routing to rank %d (%s): %w", s.rank, j, s.peers[j], err)
		}
	}
	rt.end = s.w.now()
	return nil
}

// peerConn returns the directed block conn to peer j, dialing and
// binding it (kindHello) on first use.
func (s *session) peerConn(j int) (*fconn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.quit:
		return nil, errors.New("transport: session closed")
	default:
	}
	if s.outs[j] != nil {
		return s.outs[j], nil
	}
	conn, err := net.DialTimeout("tcp", s.peers[j], dialTimeout)
	if err != nil {
		return nil, err
	}
	fc := newFConn(conn).kinds(&s.w.kc)
	if err := fc.write(&frame{Kind: kindHello, Session: s.id, Rank: s.rank}); err != nil {
		fc.close()
		return nil, err
	}
	s.outs[j] = fc
	return fc, nil
}

// shutdown tears the session down: the coordinator conn and all peer
// conns close (peers mid-collect surface it as a lost-rank diagnostic),
// and the session deregisters — dropping its resident state with it.
func (s *session) shutdown() {
	s.quit1.Do(func() {
		close(s.quit)
		s.coord.close()
		s.mu.Lock()
		for _, c := range s.outs {
			if c != nil {
				c.close()
			}
		}
		for _, c := range s.feeds {
			c.close()
		}
		s.mu.Unlock()
		s.w.mu.Lock()
		delete(s.w.sessions, s.id)
		s.w.mu.Unlock()
	})
}

// feedPeer serves one incoming peer conn: it resolves the session the
// hello names and pumps its block frames into the session inbox. A conn
// error mid-stream becomes a lost-rank message so a session blocked in a
// collect fails with a diagnostic instead of hanging.
func (w *Worker) feedPeer(fc *fconn, hello *frame) {
	defer fc.close()
	s := w.lookupSession(hello.Session)
	if s == nil || hello.Rank < 0 || hello.Rank >= s.p || hello.Rank == s.rank {
		// The open/ack ordering makes this unreachable in a healthy
		// cluster (no deposit precedes every ack); a stale or foreign
		// hello is simply dropped.
		return
	}
	deliver := func(m inMsg) bool {
		select {
		case s.inbox <- m:
			return true
		case <-s.quit:
			return false
		}
	}
	for {
		f, err := fc.read()
		if err != nil {
			deliver(inMsg{from: hello.Rank,
				err: fmt.Errorf("transport: rank %d lost its peer rank %d mid-superstep: %w", s.rank, hello.Rank, err)})
			return
		}
		if f.Kind != kindBlock || len(f.blocks) != 1 || f.Rank != hello.Rank {
			deliver(inMsg{from: hello.Rank,
				err: fmt.Errorf("transport: malformed block frame (kind %d, %d blocks, rank %d) from rank %d", f.Kind, len(f.blocks), f.Rank, hello.Rank)})
			return
		}
		if !deliver(inMsg{from: hello.Rank, seq: f.Seq, label: f.Stamp, typ: f.Type, block: f.blocks[0]}) {
			return
		}
	}
}

// lookupSession waits briefly for the session to appear (defensive: the
// protocol already orders registration before any peer traffic).
func (w *Worker) lookupSession(id string) *session {
	deadline := time.Now().Add(dialTimeout)
	for {
		w.mu.Lock()
		s := w.sessions[id]
		closed := w.closed
		w.mu.Unlock()
		if s != nil || closed || time.Now().After(deadline) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
}
