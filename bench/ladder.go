package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/layered"
	"repro/internal/persist"
	"repro/internal/psort"
	"repro/internal/wire"
)

// Ladder rungs call one layer alone on a fixed input, in the traced pass,
// so a layer's own cost has a number beside its share of a workload.

// rung is how long one ladder rung measures.
func (c runCfg) rung() time.Duration { return c.window() / 20 }

// repeat calls fn until d has passed (at least once) and returns the
// mean time per call.
func repeat(d time.Duration, fn func()) time.Duration {
	t0 := time.Now()
	n := 0
	for {
		fn()
		n++
		if el := time.Since(t0); el >= d {
			return el / time.Duration(n)
		}
	}
}

// elemPoints is the size of the ladder's single element: a forest element
// of the full-scale workloads holds n/p = 16384 points, the ladder uses a
// quarter of that to keep a rung short.
const elemPoints = 4096

// ladderLayered builds and queries one layered element of the workload's
// dimension, the backend every forest element is built on.
func ladderLayered(r *result, cfg runCfg, pts []geom.Point, boxes []geom.Box) {
	elem := pts[:min(elemPoints, len(pts))]
	before := heapNow()
	tree := layered.Build(elem)
	r.set("layered.heap_bytes_per_point", heapPer(before, len(elem)))
	per := repeat(cfg.rung(), func() { layered.Build(elem) })
	r.set("layered.build_ns_per_point", float64(per)/float64(len(elem)))
	total := 0
	per = repeat(cfg.rung(), func() {
		for _, b := range boxes {
			total += tree.Count(b)
		}
	})
	r.set("layered.count_ns_per_query", float64(per)/float64(len(boxes)))
	reported := 0
	per = repeat(cfg.rung(), func() {
		reported = 0
		for _, b := range boxes {
			reported += len(tree.Report(b))
		}
	})
	r.set("layered.report_ns_per_point", float64(per)/float64(max(reported, 1)))
	runtime.KeepAlive(total)
}

// ladderPsort sample-sorts the workload's points by their first
// coordinate on a p=4 loopback machine, the step Construct repeats per
// dimension.
func ladderPsort(r *result, cfg runCfg, pts []geom.Point) {
	blocks := core.CanonicalBlocks(pts, procs)
	less := func(a, b geom.Point) bool { return geom.LessInDim(a, b, 0) }
	mach := cgm.New(cgm.Config{P: procs})
	per := repeat(cfg.rung(), func() {
		mach.Run(func(pr *cgm.Proc) { psort.Sort(pr, "bench/sort", blocks[pr.Rank()], less) })
	})
	r.set("psort.sort_ns_per_point", float64(per)/float64(len(pts)))
}

// ladderWire encodes and decodes the two payload shapes that dominate
// W2's traffic: a 1024-point coordinate block and 1024 report pairs.
func ladderWire(r *result, cfg runCfg, pts []geom.Point) {
	block := pts[:min(1024, len(pts))]
	pairs := make([]core.ReportPair, len(block))
	for i, p := range block {
		pairs[i] = core.ReportPair{Query: int32(i % 64), Pt: p}
	}
	encP, err := wire.Encode(nil, block)
	if err != nil {
		panic(err)
	}
	encR, err := wire.Encode(nil, pairs)
	if err != nil {
		panic(err)
	}
	kb := float64(len(encP)+len(encR)) / 1024
	per := repeat(cfg.rung(), func() {
		buf := wire.GetBuf()
		buf, _ = wire.Encode(buf, block)
		buf, _ = wire.Encode(buf[:0], pairs)
		wire.PutBuf(buf)
	})
	r.set("wire.encode_ns_per_kb", float64(per)/kb)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := 0
	per = repeat(cfg.rung(), func() {
		calls++
		if _, err := wire.Decode[[]geom.Point](encP); err != nil {
			panic(err)
		}
		if _, err := wire.Decode[[]core.ReportPair](encR); err != nil {
			panic(err)
		}
	})
	runtime.ReadMemStats(&ms1)
	r.set("wire.decode_ns_per_kb", float64(per)/kb)
	r.set("wire.decode_allocs_per_block", float64(ms1.Mallocs-ms0.Mallocs)/float64(2*calls))
}

// ladderCells measures core.MixedBatch on W2's inputs in the four
// execution cells {loopback, tcp} x {fabric, resident}: the adjudication
// of whether resident is slower than fabric, and where.
func ladderCells(cfg runCfg, sp batchSpec, in *batchInputs) (map[string]float64, string, error) {
	cells := make(map[string]float64)
	var v [2][2]float64
	for ti, tcp := range []bool{false, true} {
		for ri, resident := range []bool{false, true} {
			name := "core.us_per_query." + []string{"loop", "tcp"}[ti] + "_" + []string{"fabric", "resident"}[ri]
			cell := sp
			cell.tcp, cell.resident = tcp, resident
			sys, err := setupBatch(cell, in.pts, instruments{})
			if err != nil {
				return nil, "", err
			}
			loop := &batchLoop{sys: sys, in: in}
			loop.rotations(1)
			w, ops := loop.run(cfg.window() / 8)
			s := summarize(w, ops)
			bad := loop.verify()
			sys.close()
			if s.failed+bad > 0 {
				return nil, "", fmt.Errorf("%s: %d ops failed", name, s.failed+bad)
			}
			v[ti][ri] = 1e6 / s.qps
			cells[name] = v[ti][ri]
		}
	}
	table := fmt.Sprintf("core.us_per_query, four cells on %s inputs (n=%d m=%d d=%d):\n"+
		"  %-10s %10s %10s\n  %-10s %10.1f %10.1f\n  %-10s %10.1f %10.1f\n",
		sp.name, sp.n, sp.m, sp.dims, "", "fabric", "resident",
		"loopback", v[0][0], v[0][1], "tcp", v[1][0], v[1][1])
	return cells, table, nil
}

// ladderEngine saturates an engine with 64 parked closed-loop clients
// (cache off, so every query is dispatched) and compares it with core
// alone at the engine's batch size: the difference is what micro-batching
// itself costs per query.
func ladderEngine(r *result, cfg runCfg, tree *core.Tree, boxes []geom.Box) {
	const clients = engine.DefaultBatchSize
	eng := engine.New(tree, engine.Config{CacheSize: -1})
	var wg sync.WaitGroup
	counts := make([]int, clients)
	t0 := time.Now()
	end := t0.Add(2 * cfg.rung())
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(end); i += clients {
				if _, err := eng.Count(boxes[i%len(boxes)]); err != nil {
					return
				}
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	eng.Close()
	total := 0
	for _, n := range counts {
		total += n
	}
	saturated := us(wall) / float64(max(total, 1))
	ops := make([]core.MixedOp, clients)
	at := 0
	per := repeat(2*cfg.rung(), func() {
		core.MixedBatch[struct{}](tree, nil, ops, boxes[at:at+clients])
		at = (at + clients) % (len(boxes) - clients)
	})
	r.set("engine.saturated_us_per_query", saturated)
	r.set("engine.overhead_us_per_query", saturated-us(per)/clients)
}

// ladderPersist saves the points as a snapshot to memory and loads them
// back: the codec under the store's checkpoints.
func ladderPersist(r *result, cfg runCfg, pts []geom.Point) {
	var buf bytes.Buffer
	per := repeat(cfg.rung(), func() {
		buf.Reset()
		if err := persist.SavePoints(&buf, pts, procs); err != nil {
			panic(err)
		}
	})
	r.set("persist.save_ns_per_point", float64(per)/float64(len(pts)))
	r.set("persist.bytes_per_point", float64(buf.Len())/float64(len(pts)))
	per = repeat(cfg.rung(), func() {
		if _, err := persist.LoadPoints(bytes.NewReader(buf.Bytes())); err != nil {
			panic(err)
		}
	})
	r.set("persist.load_ns_per_point", float64(per)/float64(len(pts)))
}
