package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

const (
	serveRate     = 8000 // queries per second at scale 1
	serveHotSet   = 256
	serveHotShare = 0.3
	serveSel      = 0.002
	// serveInflight caps the queries in flight; an arrival past it is
	// refused, which counts as a failed op.
	serveInflight = 4096
)

// arrival is one pre-generated query of the open loop.
type arrival struct {
	box geom.Box
	op  core.MixedOp
}

type serveInputs struct {
	n      int
	pts    []geom.Point
	arr    []arrival
	oracle *brute.Set
}

// serveOp picks report for one query in four, count otherwise.
func serveOp(k int) core.MixedOp {
	if k%4 == 3 {
		return core.OpReport
	}
	return core.OpCount
}

// generateServe draws the point set, the hot set and the arrival mix:
// 70% of arrivals are fresh boxes, 30% come from a 256-box hot set, so
// the hit share is bounded by 0.3 and p50 is a miss-path latency. A hot
// box always carries the same op, or it could never hit.
func generateServe(cfg runCfg, rate float64) *serveInputs {
	n := 1 << 16 / cfg.scale
	in := &serveInputs{n: n, pts: clustered(n, 2, cfg.seed)}
	total := int(rate*(time.Duration(cfg.trials())*cfg.warmup()+cfg.window()+time.Second).Seconds()) + 64
	hot := workload.Boxes(workload.QuerySpec{M: serveHotSet, Dims: 2, N: n, Selectivity: serveSel, Seed: cfg.seed*1000 + 1})
	fresh := workload.Boxes(workload.QuerySpec{M: total, Dims: 2, N: n, Selectivity: serveSel, Seed: cfg.seed*1000 + 2})
	rng := rand.New(rand.NewSource(cfg.seed*1000 + 3))
	in.arr = make([]arrival, total)
	for i := range in.arr {
		if rng.Float64() < serveHotShare {
			h := rng.Intn(serveHotSet)
			in.arr[i] = arrival{hot[h], serveOp(h)}
		} else {
			in.arr[i] = arrival{fresh[i], serveOp(rng.Intn(4))}
		}
	}
	in.oracle = brute.New(in.pts)
	return in
}

// serveSys is the tree and the engine over it.
type serveSys struct {
	tree   *core.Tree
	eng    *engine.Engine[struct{}]
	tracer *obs.Tracer
	build  time.Duration
}

func setupServe(in *serveInputs, ins instruments) (*serveSys, time.Duration, error) {
	t0 := time.Now()
	tree, err := core.BuildOn(cgm.NewLocalProvider(cgm.Config{P: procs, Obs: ins.reg, Tracer: ins.tracer}),
		in.pts, core.BackendLayered)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	eng := engine.New(tree, engine.Config{Obs: ins.reg, Tracer: ins.tracer})
	return &serveSys{tree: tree, eng: eng, tracer: ins.tracer, build: build}, time.Since(t0), nil
}

func (s *serveSys) close() { s.eng.Close() }

// keptQuery is a sampled query's answer, checked after the window.
type keptQuery struct {
	arr   int
	count int64
	pts   []geom.Point
}

// serveLoop is the open loop: one pacing goroutine fires arrivals at the
// fixed rate, each in-flight query parks one goroutine on the engine, and
// latency runs from the scheduled send time.
type serveLoop struct {
	sys  *serveSys
	in   *serveInputs
	rate float64
	next int // next arrival to fire
	rec  *recorder

	kept       []keptQuery
	late       []time.Duration
	backlogMax int64
	calls      []int32 // traced pass: the engine-call span of arrival i, or -1
}

func (l *serveLoop) run(d time.Duration) (*window, []op) {
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var keptMu sync.Mutex
	first := l.next
	count := min(int(l.rate*d.Seconds())+1, len(l.in.arr)-first)
	log := newOpLog(count)
	if l.rec != nil {
		l.calls = make([]int32, count)
	}
	w := measure(d, func(start, end time.Time) {
		l.late = pace(start, end, l.rate, func(due time.Time) bool {
			slot := log.next()
			if slot < 0 {
				return false
			}
			log.ops[slot].due = int64(due.Sub(start))
			now := inflight.Add(1)
			l.backlogMax = max(l.backlogMax, now)
			if now > serveInflight {
				inflight.Add(-1)
				log.ops[slot].failed = true
				return true
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer inflight.Add(-1)
				a := l.in.arr[first+slot]
				o := &log.ops[slot]
				o.queries = 1
				var call int32 = -1
				if l.rec != nil && slot%traceEvery == 0 {
					root := l.rec.add(span{Name: "op", Layer: layerBench, Op: int64(slot), Parent: -1, Start: l.rec.at(due), Traced: true})
					lateID := l.rec.add(span{Name: "generator late", Layer: layerBench, Op: int64(slot), Parent: root, Start: l.rec.at(due)})
					l.rec.end(lateID)
					call = l.rec.begin("engine."+a.op.String(), layerEngine, root, int64(slot))
					defer l.rec.end(root)
					defer l.rec.end(call)
				}
				if l.rec != nil {
					l.calls[slot] = call
				}
				var k keptQuery
				var err error
				if a.op == core.OpReport {
					k.pts, err = l.sys.eng.Report(a.box)
				} else {
					k.count, err = l.sys.eng.Count(a.box)
				}
				o.end = int64(time.Since(start))
				o.failed = err != nil
				if slot%sampleEvery == 0 && err == nil {
					k.arr = first + slot
					keptMu.Lock()
					l.kept = append(l.kept, k)
					keptMu.Unlock()
				}
			}()
			return true
		})
		wg.Wait()
	})
	l.next = first + log.n
	return w, log.done()
}

// verify checks the kept answers against the oracle.
func (l *serveLoop) verify() int64 {
	var bad int64
	for _, k := range l.kept {
		a := l.in.arr[k.arr]
		if !checkAnswer(l.in.oracle, a.op, a.box, core.MixedResult[struct{}]{Count: k.count, Pts: k.pts}) {
			bad++
		}
	}
	l.kept = nil
	return bad
}

func runServe(cfg runCfg) (*result, error) {
	rate := float64(serveRate) / float64(cfg.scale)
	in := generateServe(cfg, rate)
	if cfg.trace {
		return traceServe(cfg, in, rate)
	}
	r := newResult(cfg, wServe)
	var trials []trial
	next := 0
	for i := 0; i < cfg.trials(); i++ {
		before := heapNow()
		sys, took, err := setupServe(in, instruments{})
		if err != nil {
			return nil, err
		}
		t := trial{setupS: took.Seconds(), heapPerPoint: heapPer(before, in.n)}
		loop := &serveLoop{sys: sys, in: in, rate: rate, next: next}
		loop.run(cfg.warmup())
		loop.kept = nil
		w, ops := loop.run(cfg.trialWindow())
		t.summary = summarize(w, ops)
		t.failed += loop.verify()
		sys.close()
		next = loop.next
		trials = append(trials, t)
	}
	fillEndToEnd(r, trials)
	return r, nil
}

// dispatched is one engine batch as the engine's own tracer saw it: the
// dispatch span around core.MixedBatch and the superstep spans under it,
// on the recorder clock.
type dispatched struct {
	start, end int64
	spans      []obs.Span
}

// harvest polls the engine's tracer while the window runs: the tracer
// keeps only the last 256 traces, so batches are copied out as they
// complete.
func harvest(sys *serveSys, offset int64, stop <-chan struct{}) []dispatched {
	var out []dispatched
	last := sys.eng.LastTrace()
	pull := func() {
		latest := sys.eng.LastTrace()
		for id := last + 1; id <= latest; id++ {
			spans := sys.tracer.Spans(id)
			for _, s := range spans {
				if s.Name == "dispatch" {
					out = append(out, dispatched{s.Start + offset, s.Start + s.Dur + offset, spans})
				}
			}
		}
		last = latest
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			pull()
		case <-stop:
			pull()
			return out
		}
	}
}

func traceServe(cfg runCfg, in *serveInputs, rate float64) (*result, error) {
	r := newResult(cfg, wServe)
	plain, _, err := setupServe(in, instruments{})
	if err != nil {
		return nil, err
	}
	ref := &serveLoop{sys: plain, in: in, rate: rate}
	ref.run(cfg.warmup())
	ref.kept = nil
	wRef, opsRef := ref.run(cfg.window() / 4)
	sRef := summarize(wRef, opsRef)
	sRef.failed += ref.verify()
	plain.close()

	ins := instruments{reg: obs.NewRegistry(), tracer: obs.NewTracer()}
	rec := newRecorder()
	offset := rec.offsetOf(ins.tracer.Now())
	sys, _, err := setupServe(in, ins)
	if err != nil {
		return nil, err
	}
	loop := &serveLoop{sys: sys, in: in, rate: rate, next: ref.next}
	loop.run(cfg.warmup())
	loop.kept = nil
	loop.rec = rec
	st0 := sys.eng.Stats()
	stop := make(chan struct{})
	var batches []dispatched
	var hw sync.WaitGroup
	hw.Add(1)
	go func() {
		defer hw.Done()
		batches = harvest(sys, offset, stop)
	}()
	w, ops := loop.run(cfg.window() / 2)
	close(stop)
	hw.Wait()
	st1 := sys.eng.Stats()
	s := summarize(w, ops)
	s.failed += loop.verify()
	r.Attempted, r.Failed = s.attempted+sRef.attempted, s.failed+sRef.failed
	r.set("latency_p99_ms", ms(quantile(s.lat, 0.99)))
	r.set("cpu_us_per_query", sRef.cpuUs) // the untraced reference window

	// Hang every batch that overlaps a sampled query's engine call under
	// that call: the query waited for (or rode) that machine run.
	sort.Slice(batches, func(i, j int) bool { return batches[i].start < batches[j].start })
	var service []time.Duration
	for _, b := range batches {
		service = append(service, time.Duration(b.end-b.start))
	}
	for slot, call := range loop.calls {
		if call < 0 {
			continue
		}
		c := rec.get(call)
		i := sort.Search(len(batches), func(i int) bool { return batches[i].end > c.Start })
		for ; i < len(batches) && batches[i].start < c.End; i++ {
			b := batches[i]
			d := rec.add(span{Name: "dispatch", Layer: layerCore, Op: int64(slot), Parent: call,
				Start: max(b.start, c.Start), End: min(b.end, c.End)})
			rec.fold(d, int64(slot), b.spans, offset, false)
		}
	}
	slices.Sort(service)

	sub := float64(st1.Submitted - st0.Submitted)
	nb := float64(max(st1.Batches-st0.Batches, 1))
	r.set("engine.cache_hit_share", float64(st1.CacheHits-st0.CacheHits)/max(sub, 1))
	r.set("engine.queries_per_batch", float64(st1.BatchedQueries-st0.BatchedQueries)/nb)
	flushes := float64(st1.SizeFlushes - st0.SizeFlushes + st1.DeadlineFlushes - st0.DeadlineFlushes)
	r.set("engine.deadline_flush_share", float64(st1.DeadlineFlushes-st0.DeadlineFlushes)/max(flushes, 1))
	r.set("engine.wait_ms_p50", s.p50ms-ms(quantile(service, 0.5)))
	r.set("core.construct_s", sys.build.Seconds())
	r.set("core.batch_us_per_query", us(quantile(service, 0.5))/max(r.Metrics["engine.queries_per_batch"], 1))
	r.set("obs.overhead_share", s.cpuUs/sRef.cpuUs-1)
	r.set("obs.spans_per_batch", float64(len(rec.spans))/nb)
	r.set("bench.gen_late_p99_ms", ms(quantile(sortedCopy(loop.late), 0.99)))
	r.set("bench.backlog_max", float64(loop.backlogMax))
	r.set("bench.achieved_rate", s.qps/rate)
	r.set("bench.slice_spread", sliceSpread(w, ops, 10))
	sys.close()

	// Ladder on this workload's own tree: the engine saturated, the
	// machine's superstep, the element backend.
	fresh := make([]geom.Box, 0, 4096)
	for _, a := range in.arr[:min(4096, len(in.arr))] {
		fresh = append(fresh, a.box)
	}
	ladderEngine(r, cfg, sys.tree, fresh)
	r.set("cgm.superstep_us.loopback", superstepUs(sys.tree, 200))
	ladderLayered(r, cfg, in.pts, fresh[:256])
	return r, finishTrace(cfg, r, rec, fmt.Sprintf("median dispatched batch %.3f ms; engine wait = p50 - that = %.3f ms",
		ms(quantile(service, 0.5)), r.Metrics["engine.wait_ms_p50"]))
}
