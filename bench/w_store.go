package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

const (
	storeN         = 1 << 14 // preloaded points at scale 1
	storeMemtable  = 1024    // memtable cap at scale 1
	storeWriteRate = 125     // mutate calls per second at scale 1
	storeReadRate  = 200     // read batches per second at scale 1
	storePerCall   = 16      // points inserted and points deleted per mutate call
	storeBatch     = 64      // boxes per read batch
	storeSel       = 0.002
	storeCheckSet  = 256 // boxes of the full check before Close and after re-Open
)

// storeInputs is one long point stream: the first n are preloaded, the
// rest are inserted 16 at a time while the 16 oldest are deleted, so the
// live set is always the ID window [deleted, n+inserted) and any state
// the store passed through can be rebuilt for the oracle by slicing.
type storeInputs struct {
	n       int
	pts     []geom.Point
	sets    [][]geom.Box
	ops     []core.MixedOp
	check   []geom.Box
	memCap  int
	wRate   float64
	rRate   float64
	scratch string
}

func generateStore(cfg runCfg) *storeInputs {
	in := &storeInputs{
		n:      storeN / cfg.scale,
		memCap: storeMemtable / cfg.scale,
		wRate:  float64(storeWriteRate) / float64(cfg.scale),
		rRate:  float64(storeReadRate) / float64(cfg.scale),
	}
	calls := int(in.wRate*(cfg.warmup()+cfg.window()).Seconds()) + 8
	total := in.n + calls*storePerCall
	in.pts = clustered(total, 2, cfg.seed)
	for i := 0; i < boxSets; i++ {
		in.sets = append(in.sets, workload.Boxes(workload.QuerySpec{M: storeBatch, Dims: 2, N: total,
			Selectivity: storeSel, Seed: cfg.seed*1000 + int64(i)}))
	}
	in.check = workload.Boxes(workload.QuerySpec{M: storeCheckSet, Dims: 2, N: total,
		Selectivity: storeSel, Seed: cfg.seed*1000 + 99})
	in.ops = make([]core.MixedOp, storeBatch)
	for i := range in.ops {
		in.ops[i] = serveOp(i)
	}
	return in
}

// live returns the oracle for the state after j acknowledged mutations:
// call k inserts batch k then deletes batch k, so after j mutations
// ceil(j/2) batches are in and floor(j/2) are out.
func (in *storeInputs) live(j int64) *brute.Set {
	ins, del := (j+1)/2*storePerCall, j/2*storePerCall
	return &brute.Set{Pts: in.pts[del : int64(in.n)+ins]}
}

func (in *storeInputs) config(ins instruments) store.Config {
	cfg := store.Config{Dims: 2, P: procs, MemtableCap: in.memCap, Obs: ins.reg}
	if ins.tracer != nil {
		cfg.Provider = cgm.NewLocalProvider(cgm.Config{P: procs, Obs: ins.reg, Tracer: ins.tracer})
	}
	return cfg
}

// setupStore opens an empty directory and bulk-loads the first n points
// (which also takes the first checkpoint).
func setupStore(in *storeInputs, dir string, ins instruments) (*store.Store, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	st, err := store.Open(dir, in.config(ins))
	if err != nil {
		return nil, 0, err
	}
	if _, err := st.BulkLoad(core.SliceChunks(in.pts[:in.n], 0)); err != nil {
		st.Close()
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// keptRead is a sampled read batch: its answers and the range of states
// the pinned version can have been (mutations acknowledged before the
// pin, mutations started by the time the pin returned).
type keptRead struct {
	op     int
	set    int
	lo, hi int64
	res    []core.MixedResult[struct{}]
}

// storeLoop runs the writer and the reader side by side, both open
// loop and both timed from their due time, so a stall is charged to
// every call it delays.
type storeLoop struct {
	st     *store.Store
	in     *storeInputs
	rec    *recorder
	tracer *obs.Tracer
	offset int64

	calls            int          // mutate calls issued so far (persists across windows)
	started, applied atomic.Int64 // mutations started / acknowledged (the journal)
	reads            int
	kept             []keptRead
	lateW, lateR     []time.Duration
	insertNs, delNs  int64
	levels, mem, sh  int64 // sums of Stats samples, one per read
	samples          int64
}

func (l *storeLoop) mutate(w time.Time, log *opLog, due time.Time) bool {
	slot := log.next()
	first := l.in.n + l.calls*storePerCall
	if slot < 0 || first+storePerCall > len(l.in.pts) {
		return false
	}
	k := l.calls
	l.calls++
	o := &log.ops[slot]
	o.due, o.queries = int64(due.Sub(w)), 2*storePerCall
	var root int32 = -1
	if l.rec != nil {
		root = l.rec.add(span{Name: "mutate", Layer: layerBench, Op: int64(-1 - k), Parent: -1, Start: l.rec.at(due)})
	}
	call := func(name string, pts []geom.Point, fn func([]geom.Point) (uint64, error), ns *int64) bool {
		l.started.Add(1)
		var sp int32
		if l.rec != nil {
			sp = l.rec.begin(name, layerStore, root, int64(-1-k))
		}
		t0 := time.Now()
		_, err := fn(pts)
		*ns += int64(time.Since(t0))
		if l.rec != nil {
			l.rec.end(sp)
		}
		if err != nil {
			// Not acknowledged: the journal must not count it. The run is
			// failing anyway; stop the stream so the oracle stays aligned.
			l.started.Add(-1)
			return false
		}
		l.applied.Add(1)
		return true
	}
	ok := call("store.InsertBatch", l.in.pts[first:first+storePerCall], l.st.InsertBatch, &l.insertNs) &&
		call("store.DeleteBatch", l.in.pts[k*storePerCall:(k+1)*storePerCall], l.st.DeleteBatch, &l.delNs)
	o.end = int64(time.Since(w))
	o.failed = !ok
	if l.rec != nil {
		l.rec.end(root)
	}
	return ok
}

func (l *storeLoop) read(w time.Time, log *opLog, due time.Time) bool {
	slot := log.next()
	if slot < 0 {
		return false
	}
	i := l.reads
	l.reads++
	set := i % boxSets
	o := &log.ops[slot]
	o.due, o.queries = int64(due.Sub(w)), storeBatch
	var root int32 = -1
	var trace uint64
	begin := func(name string) int32 {
		if l.rec == nil {
			return -1
		}
		return l.rec.begin(name, layerStore, root, int64(i))
	}
	end := func(id int32) {
		if l.rec != nil {
			l.rec.end(id)
		}
	}
	if l.rec != nil {
		root = l.rec.add(span{Name: "op", Layer: layerBench, Op: int64(i), Parent: -1, Start: l.rec.at(due),
			Traced: i%traceEvery == 0})
		lateID := l.rec.add(span{Name: "queued behind earlier reads", Layer: layerBench, Op: int64(i), Parent: root, Start: l.rec.at(due)})
		l.rec.end(lateID)
		if i%traceEvery == 0 {
			trace = l.tracer.NewID()
		}
		stats := l.st.Stats()
		l.levels, l.mem, l.sh = l.levels+int64(stats.Levels), l.mem+int64(stats.Memtable), l.sh+int64(stats.Shadow)
		l.samples++
	}
	lo := l.applied.Load()
	sp := begin("store.Pin")
	v := l.st.Pin()
	end(sp)
	hi := l.started.Load()
	sp = begin("store.Mixed")
	res, err := store.MixedTraced[struct{}](v, l.in.ops, l.in.sets[set], trace)
	end(sp)
	if trace != 0 {
		l.rec.fold(sp, int64(i), l.tracer.Spans(trace), l.offset, false)
	}
	sp = begin("store.Release")
	v.Release()
	end(sp)
	o.end = int64(time.Since(w))
	o.failed = err != nil
	end(root)
	if i%sampleEvery == 0 && err == nil {
		l.kept = append(l.kept, keptRead{op: i, set: set, lo: lo, hi: hi, res: res})
	}
	return true
}

// run drives both loops for d. The end-to-end metrics come from the
// reader's ops; the writer's failures count against the same window.
func (l *storeLoop) run(d time.Duration) (w *window, reads, writes []op) {
	rlog := newOpLog(int(l.in.rRate*d.Seconds()) + 2)
	wlog := newOpLog(int(l.in.wRate*d.Seconds()) + 2)
	w = measure(d, func(start, end time.Time) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.lateW = pace(start, end, l.in.wRate, func(due time.Time) bool { return l.mutate(start, wlog, due) })
		}()
		l.lateR = pace(start, end, l.in.rRate, func(due time.Time) bool { return l.read(start, rlog, due) })
		wg.Wait()
	})
	return w, rlog.done(), wlog.done()
}

// verifyKept checks sampled read batches: an answer must match the
// oracle at one of the states the pinned version can have been.
func (l *storeLoop) verifyKept() int64 {
	var bad int64
	for _, k := range l.kept {
		boxes := l.in.sets[k.set]
		stride := max(len(boxes)/checkBoxes, 1)
		ok := false
		for j := k.lo; j <= k.hi && !ok; j++ {
			oracle := l.in.live(j)
			ok = true
			for i := k.op % stride; i < len(boxes) && ok; i += stride {
				ok = checkAnswer(oracle, l.in.ops[i], boxes[i], k.res[i])
			}
		}
		if !ok {
			bad++
		}
	}
	l.kept = nil
	return bad
}

// fullCheck compares count and report of the whole check set with the
// oracle of every acknowledged mutation. It is one op: any disagreement
// fails it.
func (l *storeLoop) fullCheck(st *store.Store) bool {
	oracle := l.in.live(l.applied.Load())
	boxes := append(append([]geom.Box(nil), l.in.check...), l.in.check...)
	ops := make([]core.MixedOp, len(boxes))
	for i := len(l.in.check); i < len(ops); i++ {
		ops[i] = core.OpReport
	}
	v := st.Pin()
	defer v.Release()
	res, err := store.Mixed[struct{}](v, ops, boxes)
	if err != nil || v.N() != len(oracle.Pts) {
		return false
	}
	for i := range boxes {
		if !checkAnswer(oracle, ops[i], boxes[i], res[i]) {
			return false
		}
	}
	return true
}

// dirBytes sums the regular files under dir; wal counts only WAL segments.
func dirBytes(dir string) (total, wal int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
			if strings.HasPrefix(e.Name(), "wal-") {
				wal += info.Size()
			}
		}
	}
	return total, wal
}

// storeLife is what one life cycle of the store measured: set-up, warm-up,
// one window of writes beside reads, then compactor idle, full check,
// Close, recovery from the directory alone, full check again, checkpoint.
type storeLife struct {
	trial
	mutates      summary // the writer's ops over the same window
	loop         *storeLoop
	w            *window
	reads        []op
	st0, st1     store.Stats
	live         float64
	steadyHeap   float64 // heap per live point after the window, compactor idle
	recoverS     float64
	disk, wal    int64
	checkpointMs float64
	checkpointB  int64
}

func storeCycle(in *storeInputs, dir string, ins instruments, rec *recorder, warm, window time.Duration) (*storeLife, error) {
	before := heapNow()
	st, took, err := setupStore(in, dir, ins)
	if err != nil {
		return nil, err
	}
	life := &storeLife{loop: &storeLoop{st: st, in: in, tracer: ins.tracer}}
	life.setupS = took.Seconds()
	life.heapPerPoint = heapPer(before, in.n)
	loop := life.loop
	loop.run(warm)
	loop.kept = nil
	if rec != nil {
		// Reads are numbered from the traced window's start, so its first
		// read is one of the one-in-traceEvery that carry a trace ID.
		loop.rec, loop.offset, loop.reads = rec, rec.offsetOf(ins.tracer.Now()), 0
	}
	life.st0 = st.Stats()
	var writes []op
	life.w, life.reads, writes = loop.run(window)
	life.summary = summarize(life.w, life.reads)
	life.mutates = summarize(life.w, writes)
	life.failed += life.mutates.failed + loop.verifyKept()

	// After the window: let the compactor finish, check every
	// acknowledged mutation, close, recover from the directory alone,
	// check again.
	st.Compact()
	life.st1 = st.Stats()
	life.attempted += 2
	if !loop.fullCheck(st) {
		life.failed++
	}
	life.live = float64(st.LiveN())
	life.steadyHeap = heapPer(before, st.LiveN())
	life.disk, life.wal = dirBytes(dir)
	if err := st.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, err = store.Open(dir, in.config(instruments{}))
	if err != nil {
		return nil, fmt.Errorf("recovering the store: %w", err)
	}
	life.recoverS = time.Since(t0).Seconds()
	if !loop.fullCheck(st) {
		life.failed++
	}
	t0 = time.Now()
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return nil, err
	}
	life.checkpointMs = ms(time.Since(t0))
	if info, err := os.Stat(filepath.Join(dir, "checkpoint")); err == nil {
		life.checkpointB = info.Size()
	}
	return life, st.Close()
}

func runStore(cfg runCfg) (*result, error) {
	in := generateStore(cfg)
	dir := filepath.Join(cfg.scratch, fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	r := newResult(cfg, wStore)
	if !cfg.trace {
		var trials []trial
		for i := 0; i < cfg.trials(); i++ {
			life, err := storeCycle(in, dir, instruments{}, nil, cfg.warmup(), cfg.trialWindow())
			if err != nil {
				return nil, err
			}
			trials = append(trials, life.trial)
		}
		fillEndToEnd(r, trials)
		return r, nil
	}

	ref, err := storeCycle(in, dir, instruments{}, nil, cfg.warmup(), cfg.window()/4)
	if err != nil {
		return nil, err
	}
	ins := instruments{reg: obs.NewRegistry(), tracer: obs.NewTracer()}
	rec := newRecorder()
	l, err := storeCycle(in, dir, ins, rec, cfg.warmup(), cfg.window()/2)
	if err != nil {
		return nil, err
	}
	loop, st0, st1 := l.loop, l.st0, l.st1
	r.Attempted, r.Failed = l.attempted+ref.attempted, l.failed+ref.failed
	r.set("latency_p99_ms", ms(quantile(l.lat, 0.99)))
	r.set("cpu_us_per_query", ref.cpuUs) // the untraced reference window
	r.set("store.mutate_p50_ms", l.mutates.p50ms)
	r.set("store.mutate_p99_ms", ms(quantile(l.mutates.lat, 0.99)))
	r.set("store.recover_s", l.recoverS)
	r.set("store.disk_bytes_per_point", float64(l.disk)/l.live)
	r.set("store.steady_heap_bytes_per_point", l.steadyHeap)
	points := float64(max(loop.calls, 1) * storePerCall)
	r.set("store.insert_us_per_point", float64(loop.insertNs)/1e3/points)
	r.set("store.delete_us_per_point", float64(loop.delNs)/1e3/points)
	r.set("store.read_us_per_query", 1e3*l.p50ms/storeBatch)
	n := float64(max(loop.samples, 1))
	r.set("store.levels_mean", float64(loop.levels)/n)
	r.set("store.memtable_mean", float64(loop.mem)/n)
	r.set("store.shadow_mean", float64(loop.sh)/n)
	r.set("store.flushes", float64(st1.Flushes-st0.Flushes))
	r.set("store.compactions", float64(st1.Compactions-st0.Compactions))
	r.set("store.build_wall_share", float64(st1.BuildWall-st0.BuildWall)/float64(l.w.wall))
	r.set("store.max_build_ms", ms(st1.MaxBuild))
	r.set("store.wal_bytes_per_mutation", float64(l.wal)/float64(max(st1.WALRecords, 1)*storePerCall))
	r.set("store.checkpoint_ms", l.checkpointMs)
	r.set("store.checkpoint_bytes_per_point", float64(l.checkpointB)/l.live)
	r.set("store.recover_replayed_records", float64(st1.WALRecords))
	r.set("obs.overhead_share", l.cpuUs/ref.cpuUs-1)
	r.set("obs.spans_per_batch", float64(len(rec.spans))/float64(max(len(l.reads), 1)))
	late := sortedCopy(loop.lateR)
	r.set("bench.gen_late_p99_ms", ms(quantile(late, 0.99)))
	r.set("bench.backlog_max", quantile(late, 1).Seconds()*in.rRate)
	r.set("bench.achieved_rate", l.qps/(in.rRate*storeBatch))
	r.set("bench.slice_spread", sliceSpread(l.w, l.reads, 10))
	ladderPersist(r, cfg, in.pts[:in.n])
	return r, finishTrace(cfg, r, rec, fmt.Sprintf("window: %d flushes, %d shadow folds, longest build %.1f ms; %d WAL records replayed in %.3f s",
		st1.Flushes-st0.Flushes, st1.Compactions-st0.Compactions, ms(st1.MaxBuild), st1.WALRecords, l.recoverS))
}
