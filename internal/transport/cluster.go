package transport

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/cgm"
	"repro/internal/exec"
	"repro/internal/obs"
)

// Cluster is a cgm.Provider backed by remote workers: every machine it
// creates opens one session on each worker and runs its supersteps over
// TCP. The same SPMD programs (construct, the three §4.2 search modes,
// store compaction) run unchanged; only the h-relations change medium.
// With cfg.Resident the machines execute registered programs against
// worker-resident state: the forest parts live in the workers, and the
// coordinator's connections carry only control frames, query boxes and
// result blocks (CoordBytes observes the difference).
type Cluster struct {
	addrs []string
	cfg   cgm.Config

	nonce string
	mu    sync.Mutex
	next  uint64
	open  map[string]*tcpTransport
	done  bool

	bytesOut, bytesIn atomic.Int64
	kc                kindCounters
}

// DialCluster connects to the given workers (one address per rank; the
// machine width is len(addrs)) and returns a provider of TCP-backed
// machines. cfg supplies Mode/G/L/Resident for created machines; cfg.P
// may be 0 or len(addrs), and cfg.Transport must be nil. Every worker is
// probed so a wrong address fails here, not mid-build.
func DialCluster(addrs []string, cfg cgm.Config) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("transport: cluster needs at least one worker address")
	}
	if cfg.P != 0 && cfg.P != len(addrs) {
		return nil, fmt.Errorf("transport: config wants %d processors but %d workers were given", cfg.P, len(addrs))
	}
	if cfg.Transport != nil {
		return nil, errors.New("transport: DialCluster builds its own transports")
	}
	seen := make(map[string]int, len(addrs))
	for rank, addr := range addrs {
		if prev, dup := seen[addr]; dup {
			return nil, fmt.Errorf("transport: worker address %s given for both rank %d and rank %d (one worker cannot play two ranks)", addr, prev, rank)
		}
		seen[addr] = rank
	}
	for rank, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			return nil, fmt.Errorf("transport: worker %d (%s) unreachable: %w", rank, addr, err)
		}
		conn.Close()
	}
	var nb [6]byte
	if _, err := rand.Read(nb[:]); err != nil {
		return nil, fmt.Errorf("transport: session nonce: %w", err)
	}
	c := &Cluster{
		addrs: append([]string(nil), addrs...),
		cfg:   cfg,
		nonce: hex.EncodeToString(nb[:]),
		open:  make(map[string]*tcpTransport),
	}
	if cfg.Obs != nil {
		// Coordinator-side wire traffic as live series: per-frame-kind
		// counts/bytes plus the raw coordinator byte totals (the resident-
		// mode headline number) and the open-session gauge.
		cfg.Obs.Collect(func(emit obs.Emit) {
			for k, st := range c.kc.snapshot() {
				emit(fmt.Sprintf("coord_frames_total{kind=%q}", k), float64(st.Frames))
				emit(fmt.Sprintf("coord_frame_bytes_total{kind=%q}", k), float64(st.Bytes))
			}
			out, in := c.CoordBytes()
			emit("coord_bytes_out_total", float64(out))
			emit("coord_bytes_in_total", float64(in))
			emit("coord_sessions_open", float64(c.Open()))
		})
	}
	return c, nil
}

// Open reports the number of live sessions (open machines).
func (c *Cluster) Open() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open)
}

// P reports the cluster width (one rank per worker).
func (c *Cluster) P() int { return len(c.addrs) }

// Addrs reports the worker addresses by rank.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Resident reports whether machines from this cluster execute registered
// programs against worker-resident state.
func (c *Cluster) Resident() bool { return c.cfg.Resident }

// CoordBytes reports the cumulative bytes written to and read from the
// workers over the coordinator's connections (all sessions since dial).
// Worker-to-worker mesh traffic is not included — that is the point: in
// resident mode the phase-B/C payloads move only on the mesh, and this
// counter shows what the coordinator no longer carries.
func (c *Cluster) CoordBytes() (out, in int64) {
	return c.bytesOut.Load(), c.bytesIn.Load()
}

// WireStats reports the coordinator connections' cumulative traffic by
// frame kind (all sessions since dial, both directions). It separates
// what CoordBytes lumps together: deposits and columns are payload the
// coordinator carries, steps are resident-mode control — so the
// fabric→resident shift is visible as deposit/column bytes collapsing
// while step frames appear.
func (c *Cluster) WireStats() map[string]FrameStat {
	return c.kc.snapshot()
}

// NewMachine opens a fresh session on every worker and returns a machine
// whose supersteps run over it. The machine owns the session: closing
// the machine (or the whole cluster) tears it down.
func (c *Cluster) NewMachine() (*cgm.Machine, error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil, errors.New("transport: cluster closed")
	}
	id := fmt.Sprintf("%s-%d", c.nonce, c.next)
	c.next++
	c.mu.Unlock()

	tr := &tcpTransport{cl: c, session: id, p: len(c.addrs), conns: make([]*fconn, len(c.addrs))}
	for rank, addr := range c.addrs {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		var fc *fconn
		if err == nil {
			fc = newFConn(conn).count(&c.bytesOut, &c.bytesIn).kinds(&c.kc)
			err = fc.write(&frame{Kind: kindOpen, Session: id, Rank: rank, Peers: c.addrs})
		}
		if err == nil {
			var ack *frame
			ack, err = fc.read()
			if err == nil && ack.Kind != kindOpenAck {
				if ack.Kind == kindError {
					err = errors.New(ack.Err)
				} else {
					err = fmt.Errorf("expected open ack, got frame kind %d", ack.Kind)
				}
			}
		}
		if err != nil {
			if conn != nil {
				conn.Close()
			}
			tr.closeConns()
			return nil, fmt.Errorf("transport: opening session on worker %d (%s): %w", rank, addr, err)
		}
		tr.conns[rank] = fc
	}
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		tr.closeConns()
		return nil, errors.New("transport: cluster closed")
	}
	c.open[id] = tr
	c.mu.Unlock()

	cfg := c.cfg
	cfg.P = len(c.addrs)
	cfg.Transport = tr
	return cgm.New(cfg), nil
}

// Close tears down every open session. Machines created by the cluster
// become unusable (their next Run fails fast).
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil
	}
	c.done = true
	live := make([]*tcpTransport, 0, len(c.open))
	for _, tr := range c.open {
		live = append(live, tr)
	}
	c.open = make(map[string]*tcpTransport)
	c.mu.Unlock()
	for _, tr := range live {
		tr.Close()
	}
	return nil
}

// tcpTransport is the coordinator side of one session: the cgm.Transport
// whose Exchange ships a rank's deposit to its worker and blocks until
// the worker returns the assembled column (or a diagnostic). It also
// implements cgm.ResidentTransport: step calls and resident supersteps
// travel the same per-rank connections (written under the fconn lock,
// read only by the rank goroutine — or, between runs, by at most one
// caller at a time, per the Machine contract).
type tcpTransport struct {
	cl      *Cluster
	session string
	p       int
	conns   []*fconn

	mu    sync.Mutex
	fault error // first abort/close cause; Reset fails fast on it
}

func (t *tcpTransport) P() int     { return t.p }
func (t *tcpTransport) Wire() bool { return true }

// Reset refuses to start a run on a session that aborted or closed: the
// workers' superstep state is unknown after either.
func (t *tcpTransport) Reset() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fault
}

func (t *tcpTransport) Exchange(rank int, dep cgm.Deposit) (cgm.Column, error) {
	wc := t.conns[rank]
	wireStart := t.cl.cfg.Tracer.Now()
	// dep.Blocks[rank] is nil by the Deposit contract — the machine
	// retains the self-addressed block, so ~2/p of a balanced
	// all-to-all's bytes never touch the wire.
	nOut, err := wc.writeN(&frame{Kind: kindDeposit, Session: t.session, Rank: rank,
		Seq: dep.Seq, Stamp: dep.Label, Type: dep.Type, Trace: dep.Trace, blocks: dep.Blocks})
	if err != nil {
		return cgm.Column{}, t.connErr(rank, err)
	}
	resp, nIn, err := wc.readN()
	if err != nil {
		return cgm.Column{}, t.connErr(rank, err)
	}
	switch resp.Kind {
	case kindColumn:
		if resp.Seq != dep.Seq {
			return cgm.Column{}, fmt.Errorf("transport: worker %d answered superstep %d, expected %d", rank, resp.Seq, dep.Seq)
		}
		if len(resp.blocks) != t.p {
			return cgm.Column{}, fmt.Errorf("transport: worker %d returned %d column blocks for %d ranks", rank, len(resp.blocks), t.p)
		}
		t.cl.cfg.Tracer.AddAll(resp.Spans)
		t.wireSpan(rank, dep.Trace, dep.Seq, wireStart, nOut+nIn)
		return cgm.Column{Blocks: resp.blocks}, nil
	case kindError:
		return cgm.Column{}, errors.New(resp.Err)
	default:
		return cgm.Column{}, fmt.Errorf("transport: worker %d sent unexpected frame kind %d", rank, resp.Kind)
	}
}

// ExchangeResident runs one superstep whose payload originates and
// terminates in the worker's session state.
func (t *tcpTransport) ExchangeResident(rank int, dep cgm.ResidentDeposit) (cgm.ResidentReply, error) {
	wc := t.conns[rank]
	wireStart := t.cl.cfg.Tracer.Now()
	fr := frame{Kind: kindDeposit, Session: t.session, Rank: rank,
		Seq: dep.Seq, Stamp: dep.Label, Trace: dep.Trace,
		Call: wireRef(dep.Emit, dep.EmitArgs), Collect: wireRef(dep.Collect, dep.CollectArgs)}
	nOut, err := wc.writeN(&fr)
	if err != nil {
		return cgm.ResidentReply{}, t.connErr(rank, err)
	}
	resp, nIn, err := wc.readN()
	if err != nil {
		return cgm.ResidentReply{}, t.connErr(rank, err)
	}
	switch resp.Kind {
	case kindColumn:
		if resp.Seq != dep.Seq {
			return cgm.ResidentReply{}, fmt.Errorf("transport: worker %d answered superstep %d, expected %d", rank, resp.Seq, dep.Seq)
		}
		rep := cgm.ResidentReply{Reply: resp.Reply, Sent: resp.Sent, Recv: resp.Recv}
		t.cl.cfg.Tracer.AddAll(resp.Spans)
		t.wireSpan(rank, dep.Trace, dep.Seq, wireStart, nOut+nIn)
		return rep, nil
	case kindError:
		return cgm.ResidentReply{}, errors.New(resp.Err)
	default:
		return cgm.ResidentReply{}, fmt.Errorf("transport: worker %d sent unexpected frame kind %d", rank, resp.Kind)
	}
}

// CallStep runs a registered pure step against rank's session state.
func (t *tcpTransport) CallStep(rank int, ref exec.Ref, args []byte) ([]byte, error) {
	wc := t.conns[rank]
	if err := wc.write(&frame{Kind: kindStep, Session: t.session, Rank: rank, Call: wireRef(ref, args)}); err != nil {
		return nil, t.connErr(rank, err)
	}
	resp, err := wc.read()
	if err != nil {
		return nil, t.connErr(rank, err)
	}
	switch resp.Kind {
	case kindStepReply:
		return resp.Reply, nil
	case kindError:
		return nil, errors.New(resp.Err)
	default:
		return nil, fmt.Errorf("transport: worker %d sent unexpected frame kind %d", rank, resp.Kind)
	}
}

// wireSpan attributes one traced exchange's coordinator traffic (frame
// bytes both directions, full framed size — the same accounting as the
// coord byte counters) to the query's span trace, so `trace [id]` shows
// a per-rank, per-superstep cost column that reconciles with
// coord_frames_total.
func (t *tcpTransport) wireSpan(rank int, trace uint64, seq int, start int64, bytes int) {
	if trace == 0 {
		return
	}
	t.cl.cfg.Tracer.Add(obs.Span{Trace: trace, Stamp: int64(seq), Name: "wire",
		Rank: rank, Start: start, Dur: t.cl.cfg.Tracer.Now() - start, Bytes: int64(bytes)})
}

// connErr wraps a connection failure; once the session is already
// poisoned it collapses to ErrAborted so a secondary failure (our own
// teardown closing the conns) cannot masquerade as a fresh cause.
func (t *tcpTransport) connErr(rank int, err error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fault != nil {
		return cgm.ErrAborted
	}
	return fmt.Errorf("transport: worker %d (%s) failed mid-superstep: %w", rank, t.cl.addrs[rank], err)
}

// Abort poisons the session and closes every worker connection, which
// unblocks any rank goroutine waiting on a column and tears the worker
// sessions down (they see EOF).
func (t *tcpTransport) Abort(msg string) {
	t.teardown(fmt.Errorf("transport: session aborted: %s", msg), false)
}

// Close politely ends the session: workers get a kindAbort frame before
// the connections close.
func (t *tcpTransport) Close() error {
	t.teardown(errors.New("transport: session closed"), true)
	return nil
}

func (t *tcpTransport) teardown(cause error, polite bool) {
	t.mu.Lock()
	if t.fault != nil {
		t.mu.Unlock()
		return
	}
	t.fault = cause
	t.mu.Unlock()
	if polite {
		for _, wc := range t.conns {
			wc.write(&frame{Kind: kindAbort, Session: t.session, Err: cause.Error()})
		}
	}
	t.closeConns()
	t.cl.mu.Lock()
	delete(t.cl.open, t.session)
	t.cl.mu.Unlock()
}

func (t *tcpTransport) closeConns() {
	for _, wc := range t.conns {
		if wc != nil {
			wc.close()
		}
	}
}
