package cgm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
)

// This file is the machine-side half of rank-parallel ingest feeds: a
// feed is a long-lived, windowed stream of calls to ONE registered step
// on ONE rank's resident state, opened outside any machine run. Unlike
// ResidentCall — one synchronous round-trip per call over the
// coordinator's control connection — a feed pipelines up to FeedWindow
// calls in flight, and on a wire transport it rides its own TCP connection
// straight to the rank's worker, so p feeds aggregate bandwidth with p
// instead of serializing behind coordinator round-trips. The feed is not
// a collective: no superstep, no communication round, no metrics — it is
// a data plane under the session, authenticated by the session token.

// FeedWindow is the number of unacknowledged calls a feed keeps in
// flight, and the depth of a bulk load's per-rank chunk queue: a slow
// rank's acknowledgements backpressure its feeder, and the feeder the
// reader, instead of growing the heap.
const FeedWindow = 4

// FeedOptions parametrises an open feed.
type FeedOptions struct {
	// MaxShare, in (0, 1), caps the fraction of worker wall-time this
	// feed's step execution may consume (the QoS knob between ingest and
	// serving). Outside that range the feed runs uncapped. A worker-side
	// operator cap, when configured, lowers the effective share further.
	MaxShare float64
}

// StepFeed is one open feed. Send and Close must be called from a single
// goroutine; acknowledgements arrive asynchronously.
type StepFeed interface {
	// Send enqueues one call with pre-encoded args. It blocks while the
	// in-flight window is full and returns the feed's failure cause once
	// the feed is dead (it never blocks forever on a dead feed). The feed
	// takes ownership of release: it is invoked exactly once — on the
	// call's acknowledgement, or during failure teardown — after which
	// the caller may recycle the args buffer.
	Send(args []byte, release func()) error
	// Close drains outstanding acknowledgements, ends the feed, and
	// returns the LAST call's encoded reply (nil if nothing was sent).
	// A feed that failed returns its first failure cause.
	Close() ([]byte, error)
}

// FeedTransport is implemented by resident transports that can open
// per-rank step feeds.
type FeedTransport interface {
	ResidentTransport
	// OpenFeed opens a windowed feed of calls to ref against rank's
	// resident state.
	OpenFeed(rank int, ref exec.Ref, opt FeedOptions) (StepFeed, error)
}

// OpenFeed opens a windowed feed of calls to ref against rank's resident
// state. Like ResidentCall it must not overlap a machine Run.
func (m *Machine) OpenFeed(rank int, ref exec.Ref, opt FeedOptions) (StepFeed, error) {
	ft, ok := m.tr.(FeedTransport)
	if !ok || !m.resident {
		return nil, errors.New("cgm: machine transport does not support step feeds")
	}
	if m.poisoned != nil {
		return nil, fmt.Errorf("cgm: machine aborted in an earlier run: %v", m.poisoned)
	}
	return ft.OpenFeed(rank, ref, opt)
}

// Poison aborts the machine from outside a run: the transport is torn
// down (unblocking any feed or step call against it) and every later Run
// fails fast with cause. It is how a dead ingest feed becomes a
// diagnostic abort on the whole session instead of a half-staged
// machine silently accepting more work. Idempotent; the first cause
// wins. Like Run itself, it must not overlap a Run in flight.
func (m *Machine) Poison(cause error) {
	if cause == nil {
		return
	}
	if m.poisoned == nil {
		m.poisoned = cause
	}
	m.tr.Abort(cause.Error())
}

// Obs returns the registry the machine publishes to (nil when
// unconfigured) so data-plane helpers like BulkLoad can thread their own
// series through the same endpoint.
func (m *Machine) Obs() *obs.Registry { return m.reg }

// ShareGovernor is the QoS scheduler between ingest staging and serving:
// a token bucket over wall-time. Credit accrues at share seconds per
// second up to a small burst; each admitted unit of work is charged its
// measured duration, and Admit sleeps whenever the bucket is in debt —
// so over any window much longer than the burst, governed work consumes
// at most a share fraction of wall-time, and the remaining (1−share)
// stays available to concurrent serving supersteps. A nil governor (the
// uncapped case) admits everything for free.
type ShareGovernor struct {
	share float64

	mu     sync.Mutex
	credit time.Duration // may go negative after Charge: the debt Admit sleeps off
	last   time.Time
}

// governorBurst bounds the credit the bucket can bank: one burst of
// work proceeds unthrottled after an idle spell, then pacing takes over.
// It is also the longest ingest-induced stall a concurrent serve query
// can see before the governor starts paying serving back, so it is kept
// small.
const governorBurst = 5 * time.Millisecond

// NewShareGovernor returns a governor capping governed work at share of
// wall-time, or nil (uncapped) when share is outside (0, 1).
func NewShareGovernor(share float64) *ShareGovernor {
	if share <= 0 || share >= 1 {
		return nil
	}
	return &ShareGovernor{share: share, last: time.Now(), credit: governorBurst}
}

// refill accrues credit since last; callers hold mu.
func (g *ShareGovernor) refill() {
	now := time.Now()
	g.credit += time.Duration(float64(now.Sub(g.last)) * g.share)
	if g.credit > governorBurst {
		g.credit = governorBurst
	}
	g.last = now
}

// Admit blocks until the bucket is out of debt and reports how long it
// waited (0 on the unthrottled path).
func (g *ShareGovernor) Admit() time.Duration {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	g.refill()
	debt := -g.credit
	g.mu.Unlock()
	if debt <= 0 {
		return 0
	}
	// Sleeping wait accrues wait·share of credit, so wait = debt/share
	// clears the debt exactly.
	wait := time.Duration(float64(debt) / g.share)
	time.Sleep(wait)
	return wait
}

// Charge debits d of measured governed work.
func (g *ShareGovernor) Charge(d time.Duration) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.refill()
	g.credit -= d
	g.mu.Unlock()
}

// loopbackFeed is the in-process feed: calls run synchronously against
// the rank's local state store (the window never fills), under the same
// governor a worker process would apply — so QoS behaviour and the
// feed-path metrics are testable without sockets.
type loopbackFeed struct {
	lt   *loopback
	rank int
	ref  exec.Ref
	gov  *ShareGovernor

	rtt           *obs.Histogram
	waits, waitNs *obs.Counter
	calls, busyNs *obs.Counter
	last          []byte
	err           error
}

// OpenFeed opens an in-process feed against rank's local state store.
func (lt *loopback) OpenFeed(rank int, ref exec.Ref, opt FeedOptions) (StepFeed, error) {
	if lt.stores == nil {
		return nil, errors.New("cgm: loopback transport is not resident")
	}
	if rank < 0 || rank >= lt.p {
		return nil, fmt.Errorf("cgm: feed rank %d out of range (p=%d)", rank, lt.p)
	}
	f := &loopbackFeed{lt: lt, rank: rank, ref: ref, gov: NewShareGovernor(opt.MaxShare)}
	if lt.reg != nil {
		f.rtt = lt.reg.Histogram(fmt.Sprintf(`ingest_feed_ack_rtt_ns{rank="%d"}`, rank))
		f.calls = lt.reg.Counter(fmt.Sprintf(`ingest_feed_calls_total{rank="%d"}`, rank))
		f.waits = lt.reg.Counter("ingest_throttle_waits_total")
		f.waitNs = lt.reg.Counter("ingest_throttle_wait_ns_total")
		f.busyNs = lt.reg.Counter("ingest_busy_ns_total")
	}
	return f, nil
}

func (f *loopbackFeed) Send(args []byte, release func()) error {
	if f.err != nil {
		if release != nil {
			release()
		}
		return f.err
	}
	if wait := f.gov.Admit(); wait > 0 && f.waits != nil {
		f.waits.Inc()
		f.waitNs.Add(int64(wait))
	}
	t0 := time.Now()
	reply, err := f.lt.stores[f.rank].Call(f.rank, f.lt.p, f.ref, args)
	busy := time.Since(t0)
	f.gov.Charge(busy)
	if release != nil {
		release()
	}
	if f.rtt != nil {
		f.rtt.Observe(busy.Nanoseconds())
		f.calls.Inc()
		f.busyNs.Add(busy.Nanoseconds())
	}
	if err != nil {
		f.err = fmt.Errorf("cgm: feed step %s/%s on rank %d: %w", f.ref.Program, f.ref.Step, f.rank, err)
		return f.err
	}
	f.last = reply
	return nil
}

func (f *loopbackFeed) Close() ([]byte, error) {
	return f.last, f.err
}
