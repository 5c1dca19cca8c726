package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/aggregates"
	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/semigroup"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	procs = 4
	// boxSets is how many pre-generated box sets a workload rotates over,
	// so the cross-batch copy cache sees changing demand.
	boxSets = 16
	// sampleEvery keeps the answers of one op in this many for the check
	// against the brute oracle after the window.
	sampleEvery = 64
	// checkBoxes bounds how many boxes of a kept batch are checked, which
	// bounds the oracle's scan time to well under a second.
	checkBoxes = 24
	// traceEvery stamps a trace ID on one op in this many in the traced
	// pass and folds the obs.Tracer spans under it.
	traceEvery = 16
)

// runCfg is what every workload run is given.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	// scale divides point counts (and the serve and store rates); the
	// smoke test runs at 16, measurements at 1.
	scale   int
	scratch string // directory for the store's files
	outDir  string // where the traced pass writes its spans ("" = nowhere)
}

func (c runCfg) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// trials is how many trials an untraced run makes (two in the smoke test).
func (c runCfg) trials() int {
	if c.scale > 1 {
		return 2
	}
	return nTrials
}

// trialWindow is one trial's measured window.
func (c runCfg) trialWindow() time.Duration { return c.window() / time.Duration(c.trials()) }

// warmup is the untimed run-in before an open-loop window (the batch
// loops warm up by one rotation of their box sets instead).
func (c runCfg) warmup() time.Duration {
	return min(max(c.trialWindow()/4, 200*time.Millisecond), time.Second)
}

// clustered generates the workload's point set: Gaussian blobs, enough of
// them that the mass a box of fixed rank-space volume catches does not
// swing with the seed.
func clustered(n, dims int, seed int64) []geom.Point {
	return workload.Points(workload.PointSpec{N: n, Dims: dims, Dist: workload.Clustered,
		Clusters: 32, Spread: 0.02, Seed: seed})
}

// batchSpec describes a closed-loop batch workload.
type batchSpec struct {
	name     string
	n, dims  int
	m        int     // boxes per batch
	sel      float64 // selectivity: share of rank space per box
	cycle    []core.MixedOp
	tcp      bool
	resident bool
}

// batchInputs is everything a batch workload feeds the system, generated
// from the seed before any timing.
type batchInputs struct {
	pts    []geom.Point
	sets   [][]geom.Box
	ops    []core.MixedOp
	oracle *brute.Set
}

func (sp batchSpec) generate(seed int64) *batchInputs {
	in := &batchInputs{pts: clustered(sp.n, sp.dims, seed)}
	for i := 0; i < boxSets; i++ {
		in.sets = append(in.sets, workload.Boxes(workload.QuerySpec{M: sp.m, Dims: sp.dims, N: sp.n,
			Selectivity: sp.sel, Seed: seed*1000 + int64(i)}))
	}
	in.ops = make([]core.MixedOp, sp.m)
	for i := range in.ops {
		in.ops[i] = sp.cycle[i%len(sp.cycle)]
	}
	in.oracle = brute.New(in.pts)
	return in
}

// batchSys is one built system under test: a tree on a loopback machine
// or on in-process TCP workers, with the weight-sum aggregate prepared.
type batchSys struct {
	tree    *core.Tree
	agg     *core.AggHandle[float64]
	cluster *transport.Cluster
	workers []*transport.Worker
	tracer  *obs.Tracer
	dial    time.Duration
	build   time.Duration
	prepare time.Duration
}

// instruments are the existing Config hooks the traced pass turns on.
type instruments struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

// setupBatch dials (or creates the provider), constructs the tree and
// prepares the aggregate: everything until the system is ready to serve.
func setupBatch(sp batchSpec, pts []geom.Point, ins instruments) (*batchSys, error) {
	s := &batchSys{tracer: ins.tracer}
	cfg := cgm.Config{Resident: sp.resident, Obs: ins.reg, Tracer: ins.tracer}
	var pv cgm.Provider
	t0 := time.Now()
	if sp.tcp {
		addrs := make([]string, procs)
		for i := range addrs {
			w, err := transport.ListenAndServe("127.0.0.1:0")
			if err != nil {
				s.close()
				return nil, err
			}
			s.workers = append(s.workers, w)
			addrs[i] = w.Addr()
		}
		cl, err := transport.DialCluster(addrs, cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.cluster, pv = cl, cl
	} else {
		cfg.P = procs
		pv = cgm.NewLocalProvider(cfg)
	}
	s.dial = time.Since(t0)
	t1 := time.Now()
	tree, err := core.BuildOn(pv, pts, core.BackendLayered)
	if err != nil {
		s.close()
		return nil, err
	}
	s.tree = tree
	s.build = time.Since(t1)
	t2 := time.Now()
	s.agg = core.PrepareAssociativeNamed[float64](tree, aggregates.WeightSum)
	s.prepare = time.Since(t2)
	return s, nil
}

func (s *batchSys) setupTime() time.Duration { return s.dial + s.build + s.prepare }

func (s *batchSys) close() {
	if s.tree != nil {
		s.tree.Machine().Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}

// keptBatch is a sampled op's answers, held for the check after the window.
type keptBatch struct {
	op  int
	set int
	res []core.MixedResult[float64]
}

// checkBatch compares checkBoxes of a kept batch's answers with the
// oracle and reports whether all agree.
func (in *batchInputs) checkBatch(k keptBatch) bool {
	boxes := in.sets[k.set]
	stride := max(len(boxes)/checkBoxes, 1)
	for i := k.op % stride; i < len(boxes); i += stride {
		if !checkAnswer(in.oracle, in.ops[i], boxes[i], k.res[i]) {
			return false
		}
	}
	return true
}

// checkAnswer compares one answer with the brute oracle.
func checkAnswer[T any](oracle *brute.Set, op core.MixedOp, box geom.Box, got core.MixedResult[T]) bool {
	switch op {
	case core.OpCount:
		return got.Count == int64(oracle.Count(box))
	case core.OpAggregate:
		want := brute.Aggregate(oracle, semigroup.FloatSum(), workload.WeightOf, box)
		agg, ok := any(got.Agg).(float64)
		return ok && math.Abs(agg-want) <= 1e-6*max(1, math.Abs(want))
	default:
		return slices.Equal(brute.IDs(got.Pts), brute.IDs(oracle.Report(box)))
	}
}

// batchCounts are the exact per-batch counts of the traced pass, summed
// over whole rotations of the box sets so they repeat run to run.
type batchCounts struct {
	batches                         int
	hatSel, subq, pairs             int
	copies, cacheHits, installNanos int64
}

func (c *batchCounts) add(t *core.Tree) {
	c.batches++
	for _, st := range t.LastSearchStats() {
		c.hatSel += st.HatSelections
		c.subq += st.Subqueries
		c.pairs += st.PairsEmitted
		c.copies += int64(st.CopiesHeld)
		c.cacheHits += int64(st.CopyCacheHits)
		c.installNanos += st.InstallNanos
	}
}

// batchLoop is the closed loop: one client calling core.MixedBatch,
// rotating over the box sets, until end. With a recorder it is the
// traced pass: a root span per op, a child span around the call into
// core, and for one op in traceEvery the obs.Tracer spans folded under
// it. next numbers the ops, so the rotation continues across warm-up and
// window.
type batchLoop struct {
	sys    *batchSys
	in     *batchInputs
	rec    *recorder
	offset int64 // tracer clock → recorder clock
	counts *batchCounts
	kept   []keptBatch
	next   int
}

func (l *batchLoop) one(start time.Time, log *opLog) bool {
	slot := log.next()
	if slot < 0 {
		return false
	}
	i := l.next
	l.next++
	set := i % boxSets
	var root, call int32
	var trace uint64
	if l.rec != nil {
		root = l.rec.add(span{Name: "op", Layer: layerBench, Op: int64(i), Parent: -1, Start: l.rec.now(),
			Traced: i%traceEvery == 0})
		if i%traceEvery == 0 {
			trace = l.sys.tracer.NewID()
			l.sys.tree.SetTrace(trace)
		}
		call = l.rec.begin("core.MixedBatch", layerCore, root, int64(i))
	}
	t0 := time.Since(start)
	res := core.MixedBatch(l.sys.tree, l.sys.agg, l.in.ops, l.in.sets[set])
	t1 := time.Since(start)
	if l.rec != nil {
		l.rec.end(call)
		if trace != 0 {
			l.sys.tree.SetTrace(0)
			l.rec.fold(call, int64(i), l.sys.tracer.Spans(trace), l.offset, l.sys.cluster != nil)
		}
		if l.counts != nil {
			l.counts.add(l.sys.tree)
		}
		l.rec.end(root)
	}
	log.ops[slot] = op{due: int64(t0), end: int64(t1), queries: int32(len(res))}
	if i%sampleEvery == 0 {
		l.kept = append(l.kept, keptBatch{op: i, set: set, res: res})
	}
	return true
}

// run loops until end and returns the ops it completed.
func (l *batchLoop) run(d time.Duration) (*window, []op) {
	log := newOpLog(int(d/(50*time.Microsecond)) + 16)
	w := measure(d, func(start, end time.Time) {
		for time.Now().Before(end) && l.one(start, log) {
		}
	})
	return w, log.done()
}

// rotations runs whole rotations of the box sets, untimed.
func (l *batchLoop) rotations(n int) {
	log := newOpLog(n * boxSets)
	for start := time.Now(); l.one(start, log); {
	}
}

// verify checks the kept batches and returns how many disagree.
func (l *batchLoop) verify() int64 {
	var bad int64
	for _, k := range l.kept {
		if !l.in.checkBatch(k) {
			bad++
		}
	}
	l.kept = nil
	return bad
}

func runBatchLoop(cfg runCfg) (*result, error) {
	return runBatch(cfg, batchSpec{name: wBatchLoop, n: 1 << 16 / cfg.scale, dims: 3, m: 512, sel: 0.01,
		cycle: []core.MixedOp{core.OpCount, core.OpAggregate}})
}

func runBatchTCP(cfg runCfg) (*result, error) {
	return runBatch(cfg, batchSpec{name: wBatchTCP, n: 1 << 16 / cfg.scale, dims: 2, m: 256, sel: 0.002,
		cycle: []core.MixedOp{core.OpCount, core.OpAggregate, core.OpReport}, tcp: true, resident: true})
}

func runBatch(cfg runCfg, sp batchSpec) (*result, error) {
	if cfg.trace {
		return traceBatch(cfg, sp, sp.generate(cfg.seed))
	}
	r := newResult(cfg, sp.name)
	var trials []trial
	for i := 0; i < cfg.trials(); i++ {
		// Each trial draws its own points and boxes from the run's seed:
		// one draw of the clusters reads up to a tenth faster or slower
		// than another at the same work counts, and a run that reports
		// across five draws moves less with its seed than one that
		// measures a single draw five times.
		in := sp.generate(cfg.seed*16 + int64(i))
		before := heapNow()
		sys, err := setupBatch(sp, in.pts, instruments{})
		if err != nil {
			return nil, err
		}
		t := trial{setupS: sys.setupTime().Seconds(), heapPerPoint: heapPer(before, sp.n)}
		loop := &batchLoop{sys: sys, in: in}
		loop.rotations(1)
		loop.kept = nil
		w, ops := loop.run(cfg.trialWindow())
		t.summary = summarize(w, ops)
		t.failed += loop.verify()
		sys.close()
		trials = append(trials, t)
	}
	fillEndToEnd(r, trials)
	return r, nil
}

// superstepUs times a 1-element AllGather on the tree's own machine: the
// fixed cost of one communication round there.
func superstepUs(t *core.Tree, rounds int) float64 {
	t0 := time.Now()
	t.Machine().Run(func(pr *cgm.Proc) {
		for i := 0; i < rounds; i++ {
			comm.AllGather(pr, "bench/ping", []int32{1})
		}
	})
	return us(time.Since(t0)) / float64(rounds)
}

func traceBatch(cfg runCfg, sp batchSpec, in *batchInputs) (*result, error) {
	r := newResult(cfg, sp.name)
	// Untraced reference: the plain system, a quarter window, for
	// obs.overhead_share.
	plain, err := setupBatch(sp, in.pts, instruments{})
	if err != nil {
		return nil, err
	}
	ref := &batchLoop{sys: plain, in: in}
	ref.rotations(1)
	wRef, opsRef := ref.run(cfg.window() / 4)
	sRef := summarize(wRef, opsRef)
	sRef.failed += ref.verify()
	plain.close()

	// Traced system: the same build with the existing Config hooks on.
	ins := instruments{reg: obs.NewRegistry(), tracer: obs.NewTracer()}
	rec := newRecorder()
	offset := rec.offsetOf(ins.tracer.Now())
	sys, err := setupBatch(sp, in.pts, ins)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	loop := &batchLoop{sys: sys, in: in}
	loop.rotations(1)

	// Exact counts: two whole rotations, read from the layers' counters.
	loop.rec, loop.offset, loop.counts = rec, offset, &batchCounts{}
	sys.tree.Machine().ResetMetrics()
	ws0 := wire.Stats()
	var out0, in0 int64
	var fr0 map[string]transport.FrameStat
	if sys.cluster != nil {
		out0, in0 = sys.cluster.CoordBytes()
		fr0 = sys.cluster.WireStats()
	}
	ex0 := execSteps(sys.workers)
	loop.rotations(2)
	c := loop.counts
	loop.counts = nil
	mt := sys.tree.Machine().Metrics()
	ws1 := wire.Stats()
	batches, queries := float64(c.batches), float64(c.batches*sp.m)
	r.set("core.hat_selections_per_query", float64(c.hatSel)/queries)
	r.set("core.subqueries_per_query", float64(c.subq)/queries)
	r.set("core.pairs_per_query", float64(c.pairs)/queries)
	r.set("core.copies_per_batch", float64(c.copies)/batches)
	if c.copies > 0 {
		r.set("core.copy_cache_hit_share", float64(c.cacheHits)/float64(c.copies))
	}
	r.set("core.install_us_per_batch", float64(c.installNanos)/1e3/batches)
	r.set("cgm.rounds_per_batch", float64(mt.CommRounds())/batches)
	r.set("cgm.max_h_per_batch", float64(mt.MaxH()))
	r.set("cgm.volume_per_batch", float64(mt.TotalComm())/batches)
	if mean := float64(mt.TotalWork()) / float64(len(mt.WorkByProc)); mean > 0 {
		r.set("cgm.work_imbalance", float64(mt.MaxWorkByProc())/mean)
	}
	r.set("wire.raw_blocks_per_query", float64(ws1.RawEncBlocks-ws0.RawEncBlocks)/queries)
	r.set("wire.raw_bytes_per_query", float64(ws1.RawEncBytes-ws0.RawEncBytes)/queries)
	r.set("wire.gob_blocks_per_query", float64(ws1.GobEncBlocks-ws0.GobEncBlocks+ws1.GobDecBlocks-ws0.GobDecBlocks)/queries)
	if sys.cluster != nil {
		out1, in1 := sys.cluster.CoordBytes()
		r.set("transport.coord_bytes_per_query", float64(out1-out0+in1-in0)/queries)
		fr1 := sys.cluster.WireStats()
		for _, kind := range []string{"deposit", "column", "step", "step_reply"} {
			r.set("transport.frames_per_batch."+kind, float64(fr1[kind].Frames-fr0[kind].Frames)/batches)
		}
		ex1 := execSteps(sys.workers)
		r.set("exec.steps_per_batch", float64(ex1.Count-ex0.Count)/batches)
		r.set("exec.step_us_per_batch", float64(ex1.Sum-ex0.Sum)/1e3/batches)
		r.set("transport.dial_s", sys.dial.Seconds())
	}
	r.set("core.construct_s", sys.build.Seconds())

	// Traced window: half the run's seconds.
	spans0 := len(rec.spans)
	w, ops := loop.run(cfg.window() / 2)
	s := summarize(w, ops)
	s.failed += loop.verify()
	r.Attempted, r.Failed = s.attempted+sRef.attempted, s.failed+sRef.failed
	r.set("latency_p99_ms", ms(quantile(s.lat, 0.99)))
	r.set("cpu_us_per_query", sRef.cpuUs) // the untraced reference window
	r.set("core.batch_us_per_query", 1e6/s.qps)
	r.set("obs.overhead_share", s.cpuUs/sRef.cpuUs-1)
	r.set("obs.spans_per_batch", float64(len(rec.spans)-spans0)/float64(max(len(ops), 1)))
	r.set("bench.slice_spread", sliceSpread(w, ops, 10))
	r.set("bench.achieved_rate", 1)

	// Ladder rungs on this workload's own machine and inputs.
	step := superstepUs(sys.tree, 200)
	if sp.tcp {
		r.set("cgm.superstep_us.tcp", step)
		r.set("transport.est_us_per_query", r.Metrics["cgm.rounds_per_batch"]*step/float64(sp.m))
	} else {
		r.set("cgm.superstep_us.loopback", step)
	}
	ladderLayered(r, cfg, in.pts, in.sets[0])
	ladderPsort(r, cfg, in.pts)
	if sp.tcp {
		ladderWire(r, cfg, in.pts)
		r.set("wire.est_us_per_query", r.Metrics["wire.raw_bytes_per_query"]/1024*
			(r.Metrics["wire.encode_ns_per_kb"]+r.Metrics["wire.decode_ns_per_kb"])/1e3)
		cells, table, err := ladderCells(cfg, sp, in)
		if err != nil {
			return nil, err
		}
		for name, v := range cells {
			r.set(name, v)
		}
		r.Tables = append(r.Tables, table)
	}
	note := fmt.Sprintf("estimate beside the table: layered %.1f us/query (subqueries x ladder count ns)",
		r.Metrics["core.subqueries_per_query"]*r.Metrics["layered.count_ns_per_query"]/1e3)
	if sp.tcp {
		note = fmt.Sprintf("estimates beside the table: transport %.1f us/query (rounds x superstep / m), wire %.1f us/query (bytes x ladder ns/KB), exec %.1f us/batch (worker step histograms)",
			r.Metrics["transport.est_us_per_query"], r.Metrics["wire.est_us_per_query"], r.Metrics["exec.step_us_per_batch"])
	}
	return r, finishTrace(cfg, r, rec, note)
}

// execSteps sums the workers' exec_step_ns histograms (every kind and
// step): the count and total time of resident steps run so far.
func execSteps(workers []*transport.Worker) obs.HistSnapshot {
	var sum obs.HistSnapshot
	for _, w := range workers {
		for name, h := range w.Obs().Dump().Hists {
			if strings.HasPrefix(name, "exec_step_ns") {
				sum = sum.Merge(h)
			}
		}
	}
	return sum
}

// finishTrace turns the recorder into the layer table and its metrics,
// and writes the spans out when an output directory was given.
func finishTrace(cfg runCfg, r *result, rec *recorder, note string) error {
	self, rootWall, roots := rec.layerTable()
	table := renderLayerTable(r.Workload, self, rootWall, roots)
	if note != "" {
		table += "  " + note + "\n"
	}
	r.Tables = append(r.Tables, table)
	share := func(layer string) float64 { return float64(self[layer]) / float64(max(rootWall, 1)) }
	for _, l := range []string{layerCore, layerCgm, layerTransport, layerExec, layerEngine, layerStore} {
		r.set(l+".self_share", share(l))
	}
	r.set("bench.unaccounted_share", share(unaccounted))
	if cfg.outDir == "" {
		return nil
	}
	return rec.write(filepath.Join(cfg.outDir, "trace-"+r.Workload+".json"))
}
