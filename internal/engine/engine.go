// Package engine is the concurrent serving layer over the distributed
// range tree: it accepts single Count/Aggregate/Report calls from many
// goroutines, micro-batches them, and dispatches each mixed-mode batch
// through the unified search pipeline in one machine run.
//
// The paper's theorems price a batch in communication rounds, so they
// assume large batches (m ≥ p² queries) — but a serving workload arrives
// one query at a time. The engine closes that gap without ever making a
// query wait for company: the dispatcher is work-conserving. When the
// machine is idle it dispatches whatever is pending, a lone query included;
// queries that arrive while that run is in flight queue behind it and are
// the next batch (up to the configured batch size). The run in flight is
// the batching window, so low load sees service-time latency, high load
// fills its batches, and m ≥ p² is met by load rather than by a timer.
// Results route back to callers over per-query channels, and an LRU cache
// keyed by (data version, mode, box) short-circuits repeated queries.
// Hit/miss/flush counters are exported via Stats.
//
// An engine serves either an immutable core.Tree (whose data version is
// forever 0) or a mutable store.Store, in which case Insert and Delete
// are available and every mutation advances the data version — cached
// answers from older versions simply stop matching and age out of the
// LRU, so a cached answer can never outlive the data it came from.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrClosed is returned by queries submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrNoAggregate is returned by Aggregate on an engine built without a
// prepared associative handle.
var ErrNoAggregate = errors.New("engine: no aggregate handle prepared")

// ErrImmutable is returned by Insert/Delete on an engine serving an
// immutable tree instead of a mutable store.
var ErrImmutable = errors.New("engine: immutable tree (serve from a store for mutations)")

// Defaults used for zero Config fields.
const (
	DefaultBatchSize = 64
	DefaultCacheSize = 1024
)

// Config tunes the micro-batching and caching behavior.
type Config struct {
	// BatchSize caps one dispatched batch: whatever queued behind the run
	// in flight beyond it waits for the run after (default
	// DefaultBatchSize).
	BatchSize int
	// CacheSize is the LRU answer-cache capacity in entries; negative
	// disables caching (default DefaultCacheSize).
	CacheSize int
	// Obs, when set, publishes the engine's counters as live series and
	// records per-mode end-to-end query-latency histograms
	// (engine_query_latency_ns{mode=...}, covering cache hits) plus a
	// batch-occupancy histogram. Nil disables publishing.
	Obs *obs.Registry
	// Tracer, when set, mints a trace ID for every dispatched batch and
	// stamps it onto the machine runs answering it, so worker-side spans
	// attribute back to the batch. Pass the same tracer to the cgm/store
	// configuration underneath or worker spans have nowhere to land.
	Tracer *obs.Tracer
	// SlowQuery, when positive, logs any batch whose wall time meets the
	// threshold — with its full span tree when Tracer is set.
	SlowQuery time.Duration
	// SlowLog receives slow-batch reports (default log.Printf).
	SlowLog func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	return cfg
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Submitted      uint64 // queries accepted (including cache hits)
	CacheHits      uint64 // answered from the LRU without dispatch
	CacheMisses    uint64 // enqueued for a batch
	Batches        uint64 // machine runs dispatched
	BatchedQueries uint64 // queries answered by dispatched batches
	SizeFlushes    uint64 // full batches: BatchSize queries were queued when the machine came free
	IdleFlushes    uint64 // partial batches: dispatched as they stood because the machine was free
	DrainFlushes   uint64 // final flushes triggered by Close
	// DeadlineFlushes is always 0: no flush waits on a timer. The field
	// survives only because bench/w_serve.go reads it and a PR that claims
	// a gain may not edit bench/; delete it in the next benchmark PR.
	DeadlineFlushes uint64
	// DedupedQueries counts batched queries that shared a machine slot
	// with an identical (mode, box) query of the same batch: answered, but
	// never dispatched on their own.
	DedupedQueries uint64
}

// request is one pending query and its reply channel. key is the answer-
// cache key built once at submit — [8 B data version ver read then][mode]
// [box] — and key[8:], the version-less part, is the in-batch dedup key.
type request[T any] struct {
	op  core.MixedOp
	box geom.Box
	ver uint64
	key string
	out chan reply[T]
}

// reply carries one query's answer — or the failure of the machine batch
// that should have produced it (a cluster losing a worker mid-run).
type reply[T any] struct {
	res core.MixedResult[T]
	err error
}

// Engine is the serving layer. All methods are safe for concurrent use.
// Exactly one of tree/st backs it.
type Engine[T any] struct {
	tree *core.Tree
	agg  *core.AggHandle[T]
	st   *store.Store
	dims int // of the tree or store; submit refuses other boxes
	cfg  Config

	// closing guards the reqs channel: submitters hold it shared for the
	// duration of a send, Close takes it exclusively before closing.
	closing sync.RWMutex
	closed  bool
	reqs    chan request[T]
	done    chan struct{}

	cache *lru[core.MixedResult[T]]

	submitted, hits, misses       atomic.Uint64
	batches, batched              atomic.Uint64
	sizeFlush, idleFlush, drained atomic.Uint64
	slowBatches, deduped          atomic.Uint64

	// published orders Trace(0) behind the dispatcher: the loop advances
	// batched under pubMu once a batch's trace is complete and broadcasts,
	// so a reader can wait for the misses it saw accepted to be dispatched.
	pubMu     sync.Mutex
	published sync.Cond

	// gate, when set (in-package tests only, before the first submit), is
	// called by the loop with every formed batch's size just before it
	// dispatches: a test holds the machine busy there.
	gate func(n int)

	// Dispatch scratch, owned by the loop goroutine (the only one that
	// runs batches) and reused across them: key → unique index, request →
	// unique index, and the deduplicated batch itself. The pipeline copies
	// what it keeps of ops and boxes before a dispatch returns.
	slot  map[string]int
	at    []int
	ops   []core.MixedOp
	boxes []geom.Box

	lat       [3]*obs.Histogram // per-mode latency, indexed by MixedOp
	occ       *obs.Histogram    // batch occupancy
	lastTrace atomic.Uint64
}

// New creates an engine answering Count and Report queries on t.
func New(t *core.Tree, cfg Config) *Engine[struct{}] {
	return WithAggregate[struct{}](t, nil, cfg)
}

// WithAggregate creates an engine that additionally answers Aggregate
// queries through the prepared handle h (which must annotate t).
func WithAggregate[T any](t *core.Tree, h *core.AggHandle[T], cfg Config) *Engine[T] {
	if h != nil && h.Tree() != t {
		panic("engine: aggregate handle was prepared on a different tree")
	}
	e := newEngine[T](cfg)
	e.tree = t
	e.agg = h
	e.dims = t.Dims()
	go e.loop()
	return e
}

// NewStore creates an engine serving Count and Report queries from a
// mutable store: batches dispatch against pinned store versions, the
// answer cache is keyed by data version, and Insert/Delete work.
// Aggregate is unavailable (tombstone subtraction needs invertibility
// the semigroup contract does not promise).
func NewStore(st *store.Store, cfg Config) *Engine[struct{}] {
	e := newEngine[struct{}](cfg)
	e.st = st
	e.dims = st.Dims()
	go e.loop()
	return e
}

func newEngine[T any](cfg Config) *Engine[T] {
	cfg = cfg.withDefaults()
	e := &Engine[T]{
		cfg:  cfg,
		reqs: make(chan request[T], 4*cfg.BatchSize),
		done: make(chan struct{}),
		slot: make(map[string]int, cfg.BatchSize),
	}
	e.published.L = &e.pubMu
	if cfg.CacheSize > 0 {
		e.cache = newLRU[core.MixedResult[T]](cfg.CacheSize)
	}
	if reg := cfg.Obs; reg != nil {
		for op, mode := range [...]string{"count", "aggregate", "report"} {
			e.lat[op] = reg.Histogram(`engine_query_latency_ns{mode="` + mode + `"}`)
		}
		e.occ = reg.Histogram("engine_batch_occupancy")
		reg.Collect(func(emit obs.Emit) {
			st := e.Stats()
			emit("engine_submitted_total", float64(st.Submitted))
			emit("engine_cache_hits_total", float64(st.CacheHits))
			emit("engine_cache_misses_total", float64(st.CacheMisses))
			emit("engine_batches_total", float64(st.Batches))
			emit("engine_batched_queries_total", float64(st.BatchedQueries))
			emit("engine_deduped_queries_total", float64(st.DedupedQueries))
			emit(`engine_flushes_total{reason="size"}`, float64(st.SizeFlushes))
			emit(`engine_flushes_total{reason="idle"}`, float64(st.IdleFlushes))
			emit(`engine_flushes_total{reason="drain"}`, float64(st.DrainFlushes))
			emit("engine_slow_batches_total", float64(e.slowBatches.Load()))
		})
	}
	return e
}

// Count answers |R(box)|.
func (e *Engine[T]) Count(box geom.Box) (int64, error) {
	r, err := e.submit(core.OpCount, box)
	return r.Count, err
}

// Aggregate answers ⊗_{l∈R(box)} f(l) for the prepared handle.
func (e *Engine[T]) Aggregate(box geom.Box) (T, error) {
	if e.agg == nil {
		var zero T
		return zero, ErrNoAggregate
	}
	r, err := e.submit(core.OpAggregate, box)
	return r.Agg, err
}

// Report answers the points of R(box), sorted by point ID.
func (e *Engine[T]) Report(box geom.Box) ([]geom.Point, error) {
	r, err := e.submit(core.OpReport, box)
	return r.Pts, err
}

// Insert adds points to the engine's mutable store (ErrImmutable when
// the engine serves a plain tree). The store's data version advances,
// so every cached answer predating the insert stops being served.
func (e *Engine[T]) Insert(pts ...geom.Point) error {
	if e.st == nil {
		return ErrImmutable
	}
	_, err := e.st.InsertBatch(pts)
	return err
}

// Delete removes live points from the engine's mutable store
// (ErrImmutable when the engine serves a plain tree).
func (e *Engine[T]) Delete(pts ...geom.Point) error {
	if e.st == nil {
		return ErrImmutable
	}
	_, err := e.st.DeleteBatch(pts)
	return err
}

// dataVersion is the cache key's version component: a store advances it
// on every mutation; an immutable tree is forever version 0.
func (e *Engine[T]) dataVersion() uint64 {
	if e.st != nil {
		return e.st.Version()
	}
	return 0
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine[T]) Stats() Stats {
	return Stats{
		Submitted:      e.submitted.Load(),
		CacheHits:      e.hits.Load(),
		CacheMisses:    e.misses.Load(),
		Batches:        e.batches.Load(),
		BatchedQueries: e.batched.Load(),
		SizeFlushes:    e.sizeFlush.Load(),
		IdleFlushes:    e.idleFlush.Load(),
		DrainFlushes:   e.drained.Load(),
		DedupedQueries: e.deduped.Load(),
	}
}

// LastTrace returns the trace ID of the most recently dispatched batch,
// or 0 if no batch has dispatched (or no tracer is configured).
func (e *Engine[T]) LastTrace() uint64 { return e.lastTrace.Load() }

// traceLiveness bounds Trace(0)'s wait for an owed dispatch: the batch may
// be wedged on a dead cluster.
const traceLiveness = 2 * time.Second

// Trace renders the span tree recorded for trace id; id 0 means the most
// recently dispatched batch — once every cache miss accepted before the
// call has been dispatched, so a trace request issued right behind the
// queries it asks about does not outrun the batch answering them. The
// rendering shows the coordinator's dispatch and exchange spans with each
// worker's emit/route/gather/collect windows nested under the superstep
// that ran them.
func (e *Engine[T]) Trace(id uint64) string {
	if e.cfg.Tracer == nil {
		return "no traced batches yet (is the engine configured with a Tracer?)"
	}
	if id == 0 {
		// Every miss is answered by exactly one batch, and the loop counts a
		// batch's queries as it publishes the batch's trace: wait for that
		// count to cover the misses accepted so far.
		owed := e.misses.Load()
		wedged := false
		liveness := time.AfterFunc(traceLiveness, func() {
			e.pubMu.Lock()
			wedged = true
			e.pubMu.Unlock()
			e.published.Broadcast()
		})
		e.pubMu.Lock()
		for e.batched.Load() < owed && !wedged {
			e.published.Wait()
		}
		e.pubMu.Unlock()
		liveness.Stop()
		if id = e.lastTrace.Load(); id == 0 {
			return "no traced batches yet"
		}
	}
	return e.cfg.Tracer.Tree(id)
}

// Close stops the engine after answering every already-accepted query.
// Subsequent queries fail with ErrClosed. Close is idempotent.
func (e *Engine[T]) Close() {
	e.closing.Lock()
	if !e.closed {
		e.closed = true
		close(e.reqs)
	}
	e.closing.Unlock()
	<-e.done
}

// submit runs the cache fast path, then hands the query to the batching
// loop and blocks on its reply channel. A box of the wrong dimensionality
// is an error here, before it can join a batch and fail its neighbours.
func (e *Engine[T]) submit(op core.MixedOp, box geom.Box) (core.MixedResult[T], error) {
	if box.Dims() != e.dims {
		return core.MixedResult[T]{}, fmt.Errorf("engine: box has %d dims, the data has %d", box.Dims(), e.dims)
	}
	if h := e.lat[op]; h != nil {
		t0 := time.Now()
		defer func() { h.Observe(time.Since(t0).Nanoseconds()) }()
	}
	e.closing.RLock()
	if e.closed {
		e.closing.RUnlock()
		return core.MixedResult[T]{}, ErrClosed
	}
	e.submitted.Add(1)
	var kb [keyStackBytes]byte
	ver := e.dataVersion()
	key := string(appendCacheKey(kb[:0], ver, op, box))
	if e.cache != nil {
		if v, ok := e.cache.get(key); ok {
			e.hits.Add(1)
			e.closing.RUnlock()
			return cloneResult(v), nil
		}
	}
	e.misses.Add(1)
	req := request[T]{op: op, box: box, ver: ver, key: key, out: make(chan reply[T], 1)}
	e.reqs <- req
	e.closing.RUnlock()
	r := <-req.out
	return r.res, r.err
}

// loop is the work-conserving dispatcher, and the only goroutine that runs
// machine batches: it blocks for the first pending request, takes whatever
// else is already queued (up to BatchSize) without waiting, and dispatches.
// Requests that arrive during the run queue in reqs and are the next batch.
// With one dispatcher no request ever waits while the machine is idle.
func (e *Engine[T]) loop() {
	defer close(e.done)
	var batch []request[T]
	for {
		req, ok := <-e.reqs
		if !ok {
			return
		}
		var reason *atomic.Uint64
		batch, reason = e.fill(append(batch, req))
		if e.gate != nil {
			e.gate(len(batch))
		}
		reason.Add(1)
		e.dispatch(batch)
		clear(batch) // drop the answered requests' keys and channels
		batch = batch[:0]
	}
}

// fill tops a batch up with what is already queued, never waiting for
// more, and names the flush: size when the batch is full, drain when Close
// ended the queue, idle otherwise.
func (e *Engine[T]) fill(batch []request[T]) ([]request[T], *atomic.Uint64) {
	for len(batch) < e.cfg.BatchSize {
		select {
		case req, ok := <-e.reqs:
			if !ok {
				return batch, &e.drained
			}
			batch = append(batch, req)
		default:
			return batch, &e.idleFlush
		}
	}
	return batch, &e.sizeFlush
}

// dispatch answers one pending buffer with a single mixed-mode machine
// run (per store level, when serving a store), deduplicating identical
// (mode, box) queries within the batch, then fans the results back out
// to the reply channels and the cache. Cache entries are stored under
// the data version the batch actually ran at — the version of the
// pinned store snapshot — so an entry can never claim to be fresher (or
// staler) than it is.
func (e *Engine[T]) dispatch(batch []request[T]) {
	clear(e.slot)
	at, ops, boxes := e.at[:0], e.ops[:0], e.boxes[:0]
	for _, req := range batch {
		j, ok := e.slot[req.key[8:]]
		if !ok {
			j = len(ops)
			e.slot[req.key[8:]] = j
			ops = append(ops, req.op)
			boxes = append(boxes, req.box)
		}
		at = append(at, j)
	}
	e.at, e.ops, e.boxes = at, ops, boxes
	e.deduped.Add(uint64(len(batch) - len(ops)))

	id := e.cfg.Tracer.NewID() // 0 without a tracer: everything below degrades to untraced
	t0 := time.Now()
	var results []core.MixedResult[T]
	var ver uint64
	var err error
	if e.st != nil {
		v := e.st.Pin()
		ver = v.Seq()
		results, err = store.MixedTraced[T](v, ops, boxes, id)
		v.Release()
	} else {
		results, err = e.treeBatch(ops, boxes, id)
	}
	wall := time.Since(t0)
	e.batches.Add(1)
	if e.occ != nil {
		e.occ.Observe(int64(len(batch)))
	}
	if id != 0 {
		end := e.cfg.Tracer.Now()
		e.cfg.Tracer.Add(obs.Span{Trace: id, Stamp: -1, Name: "dispatch",
			Rank: obs.CoordRank, Start: end - wall.Nanoseconds(), Dur: wall.Nanoseconds()})
		// Published only now, with every span of the batch recorded, so a
		// Trace(0) reader never sees a half-written trace.
		e.lastTrace.Store(id)
	}
	e.pubMu.Lock()
	e.batched.Add(uint64(len(batch)))
	e.pubMu.Unlock()
	e.published.Broadcast()
	if e.cfg.SlowQuery > 0 && wall >= e.cfg.SlowQuery {
		e.slowBatches.Add(1)
		logf := e.cfg.SlowLog
		if logf == nil {
			logf = log.Printf
		}
		if id != 0 {
			logf("engine: slow batch: %d queries in %v (threshold %v)\n%s",
				len(batch), wall, e.cfg.SlowQuery, e.cfg.Tracer.Tree(id))
		} else {
			logf("engine: slow batch: %d queries in %v (threshold %v; no tracer configured)",
				len(batch), wall, e.cfg.SlowQuery)
		}
	}

	if err != nil {
		// A machine abort mid-batch: every caller of this batch gets the
		// diagnostic; nothing is cached. The engine stays up — the store
		// records Stats.QueryErr, mutations keep flowing, and compaction
		// rebuilds levels on fresh machines.
		for _, req := range batch {
			req.out <- reply[T]{err: err}
		}
		return
	}
	for i, req := range batch {
		res := results[at[i]]
		if e.cache != nil {
			// The submit-time key is the cache key unless a mutation landed
			// between submit and the batch's pin.
			key := req.key
			if req.ver != ver {
				key = string(appendCacheKey(nil, ver, req.op, req.box))
			}
			e.cache.add(key, res)
		}
		req.out <- reply[T]{res: cloneResult(res)}
	}
}

// treeBatch dispatches against an immutable tree, converting a machine
// abort (a panic by the cgm contract) into an error on the batch.
func (e *Engine[T]) treeBatch(ops []core.MixedOp, boxes []geom.Box, trace uint64) (results []core.MixedResult[T], err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: query batch aborted: %v", r)
		}
	}()
	// The dispatcher loop is the machine's only user, so the trace stamp
	// cannot interleave with another batch's.
	e.tree.SetTrace(trace)
	defer e.tree.SetTrace(0)
	return core.MixedBatch(e.tree, e.agg, ops, boxes), nil
}

// cloneResult copies the slice-valued part of an answer so no two
// callers (or a caller and the cache) alias the same report points —
// callers are free to sort or filter what they receive in place.
func cloneResult[T any](r core.MixedResult[T]) core.MixedResult[T] {
	if r.Pts != nil {
		r.Pts = append([]geom.Point(nil), r.Pts...)
	}
	return r
}

// keyStackBytes sizes submit's stack buffer for a cache key: it holds boxes
// of up to 8 dimensions, and appendCacheKey grows past it for wider ones.
const keyStackBytes = 8 + 1 + 8*8

// appendCacheKey appends the answer-cache key [8 B data version][mode]
// [box] to buf. Mutations advance the version, so entries cached against
// earlier data stop matching and age out of the LRU.
func appendCacheKey(buf []byte, ver uint64, op core.MixedOp, b geom.Box) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ver)
	buf = append(buf, byte(op))
	for d := 0; d < b.Dims(); d++ {
		iv := b.Dim(d)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(iv.Lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(iv.Hi))
	}
	return buf
}
