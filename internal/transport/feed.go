package transport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/obs"
)

// This file is the rank-parallel ingest feed: each rank gets its own
// ingest front door on the worker's existing listener. A feed is a
// dedicated client→worker TCP connection carrying a windowed stream of
// calls to one registered step against an existing session's resident
// state — raw-coded args blocks down, per-call acks up — authenticated
// by the coordinator-minted session token (kindFeedOpen). p feeds
// aggregate ingest bandwidth with p where the coordinator's per-rank
// step calls serialize on round-trips. The worker side schedules feed
// work under a cgm.ShareGovernor, so a capped feed time-shares with the
// session's serving supersteps instead of starving them.

// SetIngestMaxShare sets the worker-wide operator cap on the fraction of
// wall-time any single ingest feed may consume (the `rangeworker
// -ingest-share` knob). Zero (the default) leaves the cap to the
// client's FeedOptions.MaxShare; when both are set the lower wins.
// Affects feeds opened after the call.
func (w *Worker) SetIngestMaxShare(share float64) {
	w.ingestShare.Store(math.Float64bits(share))
}

// effectiveShare combines the client-requested cap with the operator
// cap: the lower of the two set values, or whichever is set.
func (w *Worker) effectiveShare(client float64) float64 {
	op := math.Float64frombits(w.ingestShare.Load())
	capped := func(s float64) bool { return s > 0 && s < 1 }
	switch {
	case capped(op) && capped(client):
		return math.Min(op, client)
	case capped(op):
		return op
	default:
		return client
	}
}

// runFeed serves one ingest feed connection until it ends cleanly
// (kindFeedEnd), fails, or the session shuts down. A dead feed —
// connection error, malformed frame, step failure — aborts the whole
// session with a diagnostic: half a stream is not a state any later
// superstep should build on.
func (w *Worker) runFeed(fc *fconn, open *frame) {
	fail := func(msg string) {
		fc.write(&frame{Kind: kindError, Session: open.Session, Err: msg})
		fc.close()
	}
	if open.Call == nil {
		fail("transport: feed open without a step reference")
		return
	}
	s := w.lookupSession(open.Session)
	if s == nil {
		fail(fmt.Sprintf("transport: feed for unknown session %q", open.Session))
		return
	}
	if open.Rank != s.rank {
		fail(fmt.Sprintf("transport: feed addressed to rank %d but session %q plays rank %d here", open.Rank, open.Session, s.rank))
		return
	}
	if !s.addFeed(fc) {
		fail("transport: session is shutting down")
		return
	}
	clean := false
	defer func() {
		s.removeFeed(fc)
		fc.close()
		if !clean {
			// Dead feed ⇒ diagnostic abort on the session: the
			// coordinator and every sibling feed observe it promptly
			// instead of deadlocking on a half-fed rank.
			s.shutdown()
		}
	}()

	ref := open.Call.execRef()
	gov := cgm.NewShareGovernor(w.effectiveShare(open.Share))
	rank := fmt.Sprintf("%d", s.rank)
	calls := w.reg.Counter(fmt.Sprintf(`worker_feed_calls_total{rank=%q}`, rank))
	bytes := w.reg.Counter(fmt.Sprintf(`worker_feed_bytes_total{rank=%q}`, rank))
	busyNs := w.reg.Counter("worker_ingest_busy_ns_total")
	throttles := w.reg.Counter("worker_ingest_throttle_waits_total")
	throttleNs := w.reg.Counter("worker_ingest_throttle_wait_ns_total")
	w.reg.Counter("worker_feeds_total").Inc()

	if err := fc.write(&frame{Kind: kindFeedAck, Session: s.id, Seq: 0}); err != nil {
		return
	}
	for {
		f, err := fc.read()
		if err != nil {
			return // abnormal teardown: the defer aborts the session
		}
		switch f.Kind {
		case kindFeedCall:
			if len(f.blocks) != 1 {
				fc.write(&frame{Kind: kindError, Session: s.id, Seq: f.Seq,
					Err: fmt.Sprintf("transport: feed call carries %d payload blocks, want 1", len(f.blocks))})
				return
			}
			if wait := gov.Admit(); wait > 0 {
				throttles.Inc()
				throttleNs.Add(int64(wait))
			}
			t0 := time.Now()
			reply, err := s.store.Call(s.rank, s.p, ref, f.blocks[0])
			busy := time.Since(t0)
			gov.Charge(busy)
			busyNs.Add(busy.Nanoseconds())
			if err != nil {
				fc.write(&frame{Kind: kindError, Session: s.id, Seq: f.Seq, Err: err.Error()})
				return
			}
			calls.Inc()
			bytes.Add(int64(len(f.blocks[0])))
			if err := fc.write(&frame{Kind: kindFeedAck, Session: s.id, Seq: f.Seq, Reply: reply}); err != nil {
				return
			}
		case kindFeedEnd:
			clean = true
			fc.write(&frame{Kind: kindFeedAck, Session: s.id, Seq: -1})
			return
		default:
			fc.write(&frame{Kind: kindError, Session: s.id,
				Err: fmt.Sprintf("transport: unexpected frame kind %d on an ingest feed", f.Kind)})
			return
		}
	}
}

// addFeed registers a live feed conn with the session so shutdown severs
// it; it refuses once the session is going down.
func (s *session) addFeed(fc *fconn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.quit:
		return false
	default:
	}
	s.feeds = append(s.feeds, fc)
	return true
}

func (s *session) removeFeed(fc *fconn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.feeds {
		if c == fc {
			s.feeds = append(s.feeds[:i], s.feeds[i+1:]...)
			return
		}
	}
}

// OpenFeed dials rank's worker DIRECTLY (not the session's coordinator
// conn) and binds the fresh connection as an ingest feed for this
// session, making tcpTransport a cgm.FeedTransport. Feed traffic is
// deliberately excluded from CoordBytes — the whole point is that these
// bytes no longer ride the coordinator's control plane — but it shows in
// the per-kind frame stats as feed_open/feed_call/feed_ack rows.
func (t *tcpTransport) OpenFeed(rank int, ref exec.Ref, opt cgm.FeedOptions) (cgm.StepFeed, error) {
	t.mu.Lock()
	fault := t.fault
	t.mu.Unlock()
	if fault != nil {
		return nil, fault
	}
	if rank < 0 || rank >= t.p {
		return nil, fmt.Errorf("transport: feed rank %d out of range (p=%d)", rank, t.p)
	}
	addr := t.cl.addrs[rank]
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing feed to worker %d (%s): %w", rank, addr, err)
	}
	fc := newFConn(conn).kinds(&t.cl.kc)
	if err := fc.write(&frame{Kind: kindFeedOpen, Session: t.session, Rank: rank,
		Call: wireRef(ref, nil), Share: opt.MaxShare}); err != nil {
		fc.close()
		return nil, fmt.Errorf("transport: opening feed to worker %d (%s): %w", rank, addr, err)
	}
	ack, err := fc.read()
	if err != nil {
		fc.close()
		return nil, fmt.Errorf("transport: opening feed to worker %d (%s): %w", rank, addr, err)
	}
	switch {
	case ack.Kind == kindError:
		fc.close()
		return nil, errors.New(ack.Err)
	case ack.Kind != kindFeedAck || ack.Seq != 0:
		fc.close()
		return nil, fmt.Errorf("transport: worker %d answered feed open with frame kind %d seq %d", rank, ack.Kind, ack.Seq)
	}
	f := &clientFeed{t: t, rank: rank, addr: addr, fc: fc,
		slots: make(chan struct{}, cgm.FeedWindow), done: make(chan struct{})}
	if reg := t.cl.cfg.Obs; reg != nil {
		f.rtt = reg.Histogram(fmt.Sprintf(`ingest_feed_ack_rtt_ns{rank="%d"}`, rank))
		f.occ = reg.Histogram(fmt.Sprintf(`ingest_feed_window_depth{rank="%d"}`, rank))
	}
	go f.readAcks()
	return f, nil
}

// feedPend is one unacknowledged feed call.
type feedPend struct {
	seq     int
	sent    time.Time
	release func()
}

// clientFeed is the coordinator-process side of one rank's feed: Send
// pipelines calls under the window semaphore while readAcks (its own
// goroutine) drains acknowledgements, releases the callers' buffers, and
// observes ack RTT and window occupancy. Any failure tears the feed down
// exactly once: every pending release fires, blocked Senders unwind via
// done, and the first cause is what Close reports — a dead feed
// diagnoses, never deadlocks.
type clientFeed struct {
	t    *tcpTransport
	rank int
	addr string
	fc   *fconn

	slots chan struct{} // window semaphore: acquired by Send, freed per ack
	done  chan struct{} // closed on failure or clean end

	mu     sync.Mutex
	pend   []feedPend
	failed bool
	err    error // nil after a clean end
	last   []byte
	seq    int

	rtt, occ *obs.Histogram
}

func (f *clientFeed) Send(args []byte, release func()) error {
	released := false
	rel := func() {
		if !released && release != nil {
			released = true
			release()
		}
	}
	select {
	case f.slots <- struct{}{}:
	case <-f.done:
		rel()
		return f.cause()
	}
	f.mu.Lock()
	if f.failed {
		f.mu.Unlock()
		rel()
		return f.cause()
	}
	f.seq++
	seq := f.seq
	f.pend = append(f.pend, feedPend{seq: seq, sent: time.Now(), release: release})
	depth := len(f.pend)
	f.mu.Unlock()
	if f.occ != nil {
		f.occ.Observe(int64(depth))
	}
	if err := f.fc.write(&frame{Kind: kindFeedCall, Session: f.t.session, Rank: f.rank,
		Seq: seq, blocks: [][]byte{args}}); err != nil {
		// The entry is pending: fail's drain releases it (exactly once).
		f.fail(fmt.Errorf("transport: feed to worker %d (%s): %w", f.rank, f.addr, err))
		return f.cause()
	}
	return nil
}

// readAcks drains worker acknowledgements until the feed ends or fails.
func (f *clientFeed) readAcks() {
	for {
		fr, err := f.fc.read()
		if err != nil {
			f.fail(fmt.Errorf("transport: feed to worker %d (%s) died: %w", f.rank, f.addr, err))
			return
		}
		switch fr.Kind {
		case kindFeedAck:
			if fr.Seq == -1 { // end-of-feed ack
				f.finish()
				return
			}
			f.mu.Lock()
			if len(f.pend) == 0 || f.pend[0].seq != fr.Seq {
				f.mu.Unlock()
				f.fail(fmt.Errorf("transport: worker %d acknowledged feed call %d out of order", f.rank, fr.Seq))
				return
			}
			pe := f.pend[0]
			f.pend = f.pend[1:]
			f.last = fr.Reply
			f.mu.Unlock()
			if pe.release != nil {
				pe.release()
			}
			if f.rtt != nil {
				f.rtt.Observe(time.Since(pe.sent).Nanoseconds())
			}
			<-f.slots
		case kindError:
			f.fail(fmt.Errorf("transport: worker %d feed: %s", f.rank, fr.Err))
			return
		default:
			f.fail(fmt.Errorf("transport: worker %d sent frame kind %d on an ingest feed", f.rank, fr.Kind))
			return
		}
	}
}

// fail tears the feed down with cause (first one wins): pending releases
// fire, blocked Senders unwind, the connection closes.
func (f *clientFeed) fail(cause error) {
	f.mu.Lock()
	if f.failed {
		f.mu.Unlock()
		return
	}
	f.failed = true
	f.err = cause
	pend := f.pend
	f.pend = nil
	f.mu.Unlock()
	for _, pe := range pend {
		if pe.release != nil {
			pe.release()
		}
	}
	close(f.done)
	f.fc.close()
}

// finish ends the feed cleanly (the worker acked kindFeedEnd, which the
// per-connection frame order places after every call ack).
func (f *clientFeed) finish() {
	f.mu.Lock()
	if f.failed {
		f.mu.Unlock()
		return
	}
	f.failed = true
	if n := len(f.pend); n != 0 {
		f.err = fmt.Errorf("transport: worker %d ended the feed with %d calls unacknowledged", f.rank, n)
		for _, pe := range f.pend {
			if pe.release != nil {
				pe.release()
			}
		}
		f.pend = nil
	}
	f.mu.Unlock()
	close(f.done)
	f.fc.close()
}

// cause reports the feed's failure (ErrAborted-style fallback should the
// race on err lose).
func (f *clientFeed) cause() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	return errors.New("transport: feed closed")
}

func (f *clientFeed) Close() ([]byte, error) {
	f.mu.Lock()
	failed := f.failed
	f.mu.Unlock()
	if !failed {
		if err := f.fc.write(&frame{Kind: kindFeedEnd, Session: f.t.session, Seq: -1}); err != nil {
			f.fail(fmt.Errorf("transport: ending feed to worker %d (%s): %w", f.rank, f.addr, err))
		}
	}
	<-f.done // readAcks saw the end ack (or the failure)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.err
}
