// Command rangesearch is the end-user CLI: build a distributed range tree
// over generated or CSV-loaded points and answer a batch of box queries in
// one of the paper's three modes, reporting the machine metrics the CGM
// model cares about (rounds, h, modelled time) — or run as a line-oriented
// query service backed by the micro-batching engine.
//
// Usage:
//
//	rangesearch -n 4096 -d 2 -p 8 -queries 1024 -mode count
//	rangesearch -csv points.csv -p 4 -queries 100 -mode sum
//	rangesearch -n 1024 -d 2 -mode report -selectivity 0.02
//	rangesearch -n 4096 -d 2 -p 8 -mode serve -batch 64
//	rangesearch -n 4096 -d 2 -mode serve -mutable -dir /tmp/rangedb
//
// In serve mode, stdin is read line by line; each line is one query
//
//	count|sum|report lo1,...,lod hi1,...,hid
//
// with rank-space integer coordinates (0..n-1). One answer line is
// written per query, in input order; concurrent pipelined submission
// lets the engine micro-batch them. Engine statistics go to stderr on
// EOF. A `trace` line (optionally `trace <id>`) prints the span tree of
// the most recent (or given) dispatched batch — which coordinator
// exchanges ran, and what each worker rank spent on emit, routing,
// gathering and collect within every superstep.
//
// Observability: -debug-addr serves /metrics (Prometheus text),
// /healthz and /debug/pprof over HTTP; -slow-query logs the span tree
// of any batch at least that slow; -stats-interval prints periodic
// one-line serving summaries (q/s, p50/p99, cache hit rate, compaction
// backlog) to stderr.
//
// Cluster health plane: with -workers every rangeworker is also watched
// over a beacon stream (period -beacon-interval); the coordinator runs
// the liveness state machine (healthy → suspect → down), merges the
// beacon-carried worker registries with its own, and serves the cluster
// view from /cluster/metrics, /cluster/healthz, /cluster/events and
// /cluster/top on -debug-addr. /healthz degrades (HTTP 503, "ok": false)
// on a failed store compaction, an aborted CGM session, or a down
// worker. Structured cluster events (worker_suspect/down/recovered,
// session_abort, compaction, checkpoint, ingest begin/end) append to a
// size-capped JSONL archive at <dir>/events.jsonl when -dir is set; the
// serve command `events [n]` prints the recent tail.
//
//	rangesearch -mode top -top-addr 127.0.0.1:9090
//
// runs rangetop: a 1s-refresh live terminal dashboard (per-worker rows,
// cluster summary, recent events) driven entirely by a coordinator's
// /cluster/top endpoint — it opens no cluster connection of its own.
//
// With -mutable the engine serves from the updatable store instead of a
// frozen tree, and three more commands work (sum does not — tombstone
// subtraction needs invertibility):
//
//	insert id x1,...,xd     add a point (IDs must be fresh)
//	delete id x1,...,xd     remove a live point
//	checkpoint              persist a snapshot and rotate the WAL
//
// -dir makes the mutable store durable: mutations are WAL-logged and a
// later -mutable -dir run recovers the exact state (generated points
// seed the store only when the directory starts empty).
//
// With -workers host:port,… the machine is not simulated in-process:
// every superstep routes over TCP through that many rangeworker
// processes (the machine width becomes the worker count, overriding
// -p). All modes work — batch queries, serve, and -mutable serving,
// whose level builds and query fan-outs then run on the cluster.
//
// In serve mode SIGINT/SIGTERM shuts down cleanly: the engine drains
// its accepted queries, a -mutable -dir store takes a final checkpoint,
// and the usual statistics are printed.
package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/aggregates"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	obscluster "repro/internal/obs/cluster"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 4096, "generated point count (ignored with -csv)")
	d := flag.Int("d", 2, "dimensions (ignored with -csv)")
	dist := flag.String("dist", "uniform", "point distribution: uniform, clustered, correlated")
	csvPath := flag.String("csv", "", "CSV file of raw float coordinates, one point per row")
	p := flag.Int("p", 8, "processors")
	queries := flag.Int("queries", 256, "number of box queries")
	selectivity := flag.Float64("selectivity", 0.01, "target query selectivity")
	mode := flag.String("mode", "count", "result mode: count, report, sum, serve, or top (live cluster dashboard via -top-addr)")
	seed := flag.Int64("seed", 1, "workload seed")
	verbose := flag.Bool("v", false, "print per-query results")
	batch := flag.Int("batch", engine.DefaultBatchSize, "serve mode: largest batch one machine run answers")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "serve mode: LRU answer-cache entries (negative disables)")
	mutable := flag.Bool("mutable", false, "serve mode: serve from the updatable store (enables insert/delete/checkpoint)")
	dir := flag.String("dir", "", "serve mode with -mutable: store directory (WAL + checkpoints); empty = ephemeral")
	workers := flag.String("workers", "", "comma-separated rangeworker addresses; supersteps run over TCP on these processes (machine width = worker count, overriding -p)")
	resident := flag.Bool("resident", false, "worker-resident execution: the forest lives where the SPMD programs run (worker memory with -workers) instead of coordinator memory")
	debugAddr := flag.String("debug-addr", "", "HTTP address for the coordinator's /metrics, /healthz and /debug/pprof (empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "serve mode: log the span tree of any batch at least this slow (0 disables)")
	statsInterval := flag.Duration("stats-interval", 0, "serve mode: print a one-line stats summary to stderr at this period (0 disables)")
	ingestShare := flag.Float64("ingest-share", 0, "serve mode with -mutable: cap in (0,1) on the fraction of worker wall-time bulk-load ingest may consume, keeping serving responsive during loads (0 = uncapped)")
	beaconInterval := flag.Duration("beacon-interval", obscluster.DefaultInterval, "cluster health: worker beacon period; liveness thresholds (suspect, down) scale with it")
	topAddr := flag.String("top-addr", "", "-mode top: coordinator admin address to watch (its -debug-addr, serving /cluster/top)")
	flag.Parse()

	if *mode == "top" {
		addr := *topAddr
		if addr == "" {
			addr = *debugAddr
		}
		if addr == "" {
			fmt.Fprintln(os.Stderr, "rangesearch: -mode top needs -top-addr (the target coordinator's -debug-addr)")
			os.Exit(2)
		}
		runTop(addr, time.Second)
		return
	}

	pts, dims := loadPoints(*csvPath, *n, *d, *dist, *seed)
	// One registry + tracer for the whole coordinator process: the
	// machine, engine, store, codec and admin endpoint all share it, so
	// /metrics is the union and the `trace` command sees every span.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	reg.Collect(wire.EmitStats)

	// The event archive persists beside the store when one is durable;
	// otherwise it is an in-memory ring, still served over /cluster/events
	// and the `events` command.
	evPath := ""
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rangesearch: %v\n", err)
			os.Exit(1)
		}
		evPath = filepath.Join(*dir, "events.jsonl")
	}
	evlog, err := obscluster.OpenEventLog(evPath, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangesearch: event archive: %v\n", err)
		os.Exit(1)
	}
	defer evlog.Close()

	hs := &healthSrc{mode: *mode, p: *p}
	// session_abort doubles as the poisoned-machine flag for /healthz:
	// the sink sees every abort on its way into the archive.
	events := func(kind string, rank int, detail string) {
		if kind == "session_abort" {
			hs.noteAbort(detail)
		}
		evlog.Emit(kind, rank, detail)
	}

	engCfg := engine.Config{BatchSize: *batch, CacheSize: *cacheSize,
		Obs: reg, Tracer: tracer, SlowQuery: *slowQuery}
	machCfg := cgm.Config{P: *p, Resident: *resident, Obs: reg, Tracer: tracer, Events: events}

	var cluster *transport.Cluster
	var mon *obscluster.Monitor
	if *workers != "" {
		addrs := strings.Split(*workers, ",")
		clCfg := machCfg
		clCfg.P = 0 // the worker count is the machine width
		var err error
		cluster, err = transport.DialCluster(addrs, clCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangesearch: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()
		*p = cluster.P()
		// The health plane rides its own beacon streams, not the session
		// connections: a worker busy in a superstep still beacons, and a
		// dead one is detected even with no query in flight.
		mon = obscluster.NewMonitor(obscluster.MonitorConfig{
			Addrs: addrs, Interval: *beaconInterval, Events: evlog, Obs: reg})
		watcher := transport.WatchHealth(addrs, *beaconInterval, mon)
		defer mon.Close()
		defer watcher.Close()
		hs.attachCluster(cluster, mon, addrs, *p)
		exMode := "fabric"
		if *resident {
			exMode = "resident"
		}
		fmt.Printf("cluster: %d workers, %s mode (%s)\n", cluster.P(), exMode, strings.Join(addrs, " "))
	}

	if *debugAddr != "" {
		admin, err := obs.ServeAdmin(*debugAddr, reg, hs.health)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangesearch: debug listener: %v\n", err)
			os.Exit(1)
		}
		defer admin.Close()
		agg := &obscluster.Aggregator{Mon: mon, Events: evlog, Local: reg, LocalHealth: hs.local}
		agg.Mount(admin)
		fmt.Printf("metrics, health and pprof on http://%s\n", admin.Addr())
	}

	if *mode == "serve" && *mutable {
		serveMutable(pts, dims, *p, *dir, cluster, *resident, engCfg, reg, tracer, *statsInterval, *ingestShare, hs, evlog, events)
		return
	}
	boxes := workload.Boxes(workload.QuerySpec{
		M: *queries, Dims: dims, N: len(pts), Selectivity: *selectivity, Seed: *seed,
	})

	var mach *cgm.Machine
	if cluster != nil {
		var err error
		mach, err = cluster.NewMachine()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rangesearch: %v\n", err)
			os.Exit(1)
		}
	} else {
		mach = cgm.New(machCfg)
	}
	start := time.Now()
	dt := core.Build(mach, pts)
	buildWall := time.Since(start)
	buildMetrics := mach.Metrics()
	mach.ResetMetrics()

	fmt.Printf("built distributed range tree: n=%d d=%d p=%d grain=%d\n",
		len(pts), dims, *p, dt.Grain())
	fmt.Printf("  hat %d nodes / forest %d elements | construct: %d rounds, max h %d, volume %d, wall %v\n\n",
		dt.HatNodeCount(), dt.ElemCount(), buildMetrics.CommRounds(), buildMetrics.MaxH(), buildMetrics.TotalComm(),
		buildWall.Round(time.Millisecond))

	if *mode == "serve" {
		serve(dt, dims, engCfg, reg, *statsInterval, evlog)
		return
	}

	start = time.Now()
	switch *mode {
	case "count":
		counts := dt.CountBatch(boxes)
		total := int64(0)
		for i, c := range counts {
			total += c
			if *verbose {
				fmt.Printf("query %4d %v -> %d points\n", i, boxes[i], c)
			}
		}
		fmt.Printf("count mode: %d queries, %d total matches\n", len(boxes), total)
	case "sum":
		h := prepareSum(dt)
		sums := h.Batch(boxes)
		grand := 0.0
		for i, s := range sums {
			grand += s
			if *verbose {
				fmt.Printf("query %4d %v -> sum %.2f\n", i, boxes[i], s)
			}
		}
		fmt.Printf("sum mode: %d queries, grand total %.2f\n", len(boxes), grand)
	case "report":
		results, perProc := dt.ReportBatchBalance(boxes)
		k := 0
		for i, r := range results {
			k += len(r)
			if *verbose {
				fmt.Printf("query %4d %v -> %d points\n", i, boxes[i], len(r))
			}
		}
		fmt.Printf("report mode: %d queries, k=%d pairs; per-processor pairs %v\n", len(boxes), k, perProc)
	default:
		fmt.Fprintf(os.Stderr, "rangesearch: unknown mode %q (want count, report, sum or serve)\n", *mode)
		os.Exit(2)
	}
	wall := time.Since(start)
	mt := mach.Metrics()
	fmt.Printf("search: %d rounds, max h %d, volume %d, modelled time %v, wall %v\n",
		mt.CommRounds(), mt.MaxH(), mt.TotalComm(),
		mt.ModelTime(cgm.DefaultG, cgm.DefaultL).Round(time.Microsecond),
		wall.Round(time.Millisecond))
}

// serve runs the line-oriented query loop on top of the micro-batching
// engine over a frozen tree.
func serve(dt *core.Tree, dims int, cfg engine.Config, reg *obs.Registry, statsInterval time.Duration, evlog *obscluster.EventLog) {
	h := prepareSum(dt)
	eng := engine.WithAggregate(dt, h, cfg)
	stopStats := startStatsLoop(statsInterval, reg, eng.Stats, nil)
	serveLoop(func(line string) string {
		if fields := strings.Fields(line); fields[0] == "events" {
			return answerEvents(evlog, fields)
		}
		return answerLine(eng, dims, line)
	}, nil,
		func() { stopStats(); eng.Close() },
		func() { printEngineStats(eng.Stats()) })
}

// startStatsLoop prints a one-line serving summary to stderr every
// interval (0 disables): query rate, latency quantiles over all modes
// (merged from the per-mode obs histograms the engine feeds), cache hit
// rate, the share of phase B's copy volume that went by reference (from
// core_phaseb_copy_points_total, which every tree on reg's machines
// feeds, a store's level trees included), and — when serving a store —
// the compaction backlog. The returned function stops the loop.
func startStatsLoop(interval time.Duration, reg *obs.Registry, stats func() engine.Stats, st *store.Store) func() {
	if interval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	var once sync.Once
	go func() {
		lat := []*obs.Histogram{
			reg.Histogram(`engine_query_latency_ns{mode="count"}`),
			reg.Histogram(`engine_query_latency_ns{mode="aggregate"}`),
			reg.Histogram(`engine_query_latency_ns{mode="report"}`),
		}
		shipped := reg.Counter(`core_phaseb_copy_points_total{how="shipped"}`)
		byRef := reg.Counter(`core_phaseb_copy_points_total{how="by_ref"}`)
		t := time.NewTicker(interval)
		defer t.Stop()
		prev := stats()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			cur := stats()
			qps := float64(cur.Submitted-prev.Submitted) / interval.Seconds()
			snap := lat[0].Snapshot().Merge(lat[1].Snapshot()).Merge(lat[2].Snapshot())
			hitRate, byRefShare := 0.0, 0.0
			if cur.Submitted > 0 {
				hitRate = 100 * float64(cur.CacheHits) / float64(cur.Submitted)
			}
			if r := byRef.Value(); r > 0 {
				byRefShare = 100 * float64(r) / float64(r+shipped.Value())
			}
			line := fmt.Sprintf("stats: %.1f q/s | p50 %v p99 %v | cache %.1f%% hit | copies %.1f%% by ref",
				qps,
				time.Duration(snap.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(snap.Quantile(0.99)).Round(time.Microsecond),
				hitRate, byRefShare)
			if st != nil {
				ss := st.Stats()
				line += fmt.Sprintf(" | compaction backlog %d (mem %d + shadow %d), %d levels",
					ss.Memtable+ss.Shadow, ss.Memtable, ss.Shadow, ss.Levels)
			}
			fmt.Fprintln(os.Stderr, line)
			prev = cur
		}
	}()
	return func() { once.Do(func() { close(stop) }) }
}

// prepareSum prepares the CLI's standard sum aggregate: the registered
// "weight-sum" aggregate (required on resident trees, identical on
// fabric ones).
func prepareSum(dt *core.Tree) *core.AggHandle[float64] {
	return core.PrepareAssociativeNamed[float64](dt, aggregates.WeightSum)
}

// serveMutable serves from the updatable store: queries pipeline through
// the engine as usual, while insert/delete/checkpoint commands apply
// synchronously in input order, so every later line observes them.
func serveMutable(pts []geom.Point, dims, p int, dir string, cluster *transport.Cluster, resident bool, cfg engine.Config, reg *obs.Registry, tracer *obs.Tracer, statsInterval time.Duration, ingestShare float64, hs *healthSrc, evlog *obscluster.EventLog, events obs.EventSink) {
	// A durable store knows its own dimensionality: let the checkpoint
	// decide first so a rerun need not repeat the original -d, and fall
	// back to the flag only for a directory with no checkpoint yet.
	storeCfg := func(d int) store.Config {
		c := store.Config{Dims: d, P: p, Obs: reg, IngestMaxShare: ingestShare, Events: events}
		if cluster != nil {
			c.Provider = cluster
		} else {
			// Explicit local provider (even non-resident) so level
			// machines inherit the registry and tracer.
			c.Provider = cgm.NewLocalProvider(cgm.Config{P: p, Resident: resident, Obs: reg, Tracer: tracer})
		}
		return c
	}
	st, err := store.Open(dir, storeCfg(0))
	if errors.Is(err, store.ErrNoDims) {
		st, err = store.Open(dir, storeCfg(dims))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangesearch: %v\n", err)
		os.Exit(1)
	}
	if st.Dims() != dims {
		fmt.Printf("store: serving %d-dimensional data from its checkpoint (-d %d ignored)\n", st.Dims(), dims)
		dims = st.Dims()
	}
	// Seed only a brand-new store (version 0 = no mutation and no
	// checkpoint ever); a durable store recovered to any prior state —
	// including a legitimately emptied one — is served as recovered.
	if st.Version() == 0 && st.LiveN() == 0 {
		if _, err := st.InsertBatch(pts); err != nil {
			fmt.Fprintf(os.Stderr, "rangesearch: seeding store: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("store: recovered %d live points at version %d\n", st.LiveN(), st.Version())
	}
	hs.setStore(st)
	eng := engine.NewStore(st, cfg)
	stopStats := startStatsLoop(statsInterval, reg, eng.Stats, st)
	isMutation := func(line string) bool {
		switch strings.Fields(line)[0] {
		case "insert", "delete", "checkpoint":
			return true
		}
		return false
	}
	serveLoop(func(line string) string {
		if fields := strings.Fields(line); fields[0] == "events" {
			return answerEvents(evlog, fields)
		}
		return answerMutableLine(eng, st, dims, line)
	}, isMutation,
		func() { stopStats(); eng.Close() },
		func() {
			// When durable, persist a final checkpoint so a restart
			// recovers this exact state without WAL replay.
			if dir != "" {
				if err := st.Checkpoint(); err != nil {
					fmt.Fprintf(os.Stderr, "rangesearch: final checkpoint: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "rangesearch: final checkpoint at version %d\n", st.Version())
				}
			}
			if err := st.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "rangesearch: closing store: %v\n", err)
			}
			printEngineStats(eng.Stats())
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "store: version %d | %d live, %d levels, %d memtable, %d tombstones | %d flushes, %d folds, %d checkpoints\n",
				ss.Seq, ss.Live, ss.Levels, ss.Memtable, ss.Shadow, ss.Flushes, ss.Compactions, ss.Checkpoints)
		})
}

func printEngineStats(st engine.Stats) {
	fmt.Fprintf(os.Stderr, "engine: %d queries | cache %d hit / %d miss | %d batches (%d full, %d partial on an idle machine)\n",
		st.Submitted, st.CacheHits, st.CacheMisses, st.Batches, st.SizeFlushes, st.IdleFlushes)
}

// serveLoop reads stdin line by line. Lines answer on their own
// goroutines so in-flight queries pipeline into engine batches; answers
// are written in input order. Lines matching mutation are instead
// applied inline before the next line is read, preserving
// read-your-writes ordering.
//
// Both exits share one shutdown sequence — drain (stop the engine, so
// every accepted query's answer resolves), write the pending answers,
// then finish (final checkpoint / close / stats). EOF runs it and
// returns; SIGINT/SIGTERM runs it and exits 0, with signal dispositions
// restored first so a second signal kills the process outright if the
// drain wedges (e.g. a cluster worker gone unreachable).
func serveLoop(answer func(string) string, mutation func(string) bool, drain, finish func()) {
	type pending struct{ ch chan string }
	queue := make(chan pending, 1024)
	var closing atomic.Bool // set on signal: the scanner stops accepting lines
	var scanErr error
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		// prev is closed once every line before has its answer. A `trace`
		// line asks about the batches behind the lines before it, so it
		// starts only then; queries still pipeline with each other.
		prev := make(chan struct{})
		close(prev)
		for sc.Scan() {
			if closing.Load() {
				return // shutting down: lines past the cut are not accepted
			}
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			p := pending{ch: make(chan string, 1)}
			queue <- p
			if mutation != nil && mutation(line) {
				p.ch <- answer(line)
				continue
			}
			answered := make(chan struct{})
			go func(line string, prev <-chan struct{}) {
				if strings.HasPrefix(line, "trace") {
					<-prev
				}
				p.ch <- answer(line)
				<-prev
				close(answered)
			}(line, prev)
			prev = answered
		}
		scanErr = sc.Err() // before close: visible to the drain loop's end
		close(queue)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	w := bufio.NewWriter(os.Stdout)
	// gracefulExit answers what was accepted before the cut: closing
	// stops the scanner from accepting further lines, and every entry
	// it already enqueued (or enqueues within the grace window while
	// mid-line) is answered — a mutation is enqueued before it is
	// applied, so an applied-but-unacknowledged mutation cannot slip
	// through. Only lines the scanner never accepted go unanswered.
	gracefulExit := func(s os.Signal, head *pending) {
		signal.Stop(sig)
		closing.Store(true)
		fmt.Fprintf(os.Stderr, "rangesearch: %v: draining engine before exit (repeat to force quit)\n", s)
		drain()
		if head != nil {
			fmt.Fprintln(w, <-head.ch)
		}
		for {
			select {
			case p, ok := <-queue:
				if ok {
					fmt.Fprintln(w, <-p.ch)
					continue
				}
			case <-time.After(200 * time.Millisecond):
				// Idle for a whole grace window: nothing else was
				// accepted before the closing flag took effect.
			}
			break
		}
		w.Flush()
		finish()
		os.Exit(0)
	}
	for {
		select {
		case p, ok := <-queue:
			if !ok { // EOF: stdin is done and every entry was printed
				signal.Stop(sig)
				drain()
				w.Flush()
				finish()
				if scanErr != nil {
					fmt.Fprintf(os.Stderr, "rangesearch: reading stdin: %v (remaining input dropped)\n", scanErr)
					os.Exit(1)
				}
				return
			}
			select {
			case line := <-p.ch:
				fmt.Fprintln(w, line)
				if len(queue) == 0 {
					w.Flush()
				}
			case s := <-sig:
				gracefulExit(s, &p)
			}
		case s := <-sig:
			gracefulExit(s, nil)
		}
	}
}

// answerTrace handles the `trace [id]` serve command: the span tree of
// the given (default most recent) traced batch.
func answerTrace(trace func(uint64) string, fields []string) string {
	var id uint64
	if len(fields) > 2 {
		return "error: want `trace` or `trace <id>`"
	}
	if len(fields) == 2 {
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Sprintf("error: trace id %q: %v", fields[1], err)
		}
		id = v
	}
	return trace(id)
}

// healthSrc is the coordinator's /healthz source: static identity plus
// the live pieces (store, cluster, monitor) attached as they come up.
// OK turns false on a failed store compaction, an aborted query batch,
// an aborted CGM session, or a worker aged to down — the degraded
// conditions a load balancer should route away from.
type healthSrc struct {
	mu        sync.Mutex
	mode      string
	p         int
	workers   []string
	cluster   *transport.Cluster
	mon       *obscluster.Monitor
	st        *store.Store
	abortInfo string
}

func (h *healthSrc) attachCluster(cl *transport.Cluster, mon *obscluster.Monitor, addrs []string, p int) {
	h.mu.Lock()
	h.cluster, h.mon, h.workers, h.p = cl, mon, addrs, p
	h.mu.Unlock()
}

func (h *healthSrc) setStore(st *store.Store) {
	h.mu.Lock()
	h.st = st
	h.mu.Unlock()
}

func (h *healthSrc) noteAbort(detail string) {
	h.mu.Lock()
	h.abortInfo = detail
	h.mu.Unlock()
}

// localDetail reports process-local health — the serving store and the
// session-abort flag — without the worker liveness that health() and the
// cluster aggregator add themselves.
func (h *healthSrc) localDetail() (bool, map[string]any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ok := true
	detail := map[string]any{"role": "coordinator", "mode": h.mode, "p": h.p}
	if h.abortInfo != "" {
		ok = false
		detail["session_abort"] = h.abortInfo
	}
	if h.st != nil {
		ss := h.st.Stats()
		detail["store"] = map[string]any{"version": ss.Seq, "live": ss.Live, "levels": ss.Levels}
		if ss.CompactErr != "" {
			ok = false
			detail["compact_err"] = ss.CompactErr
		}
		if ss.QueryErr != "" {
			ok = false
			detail["query_err"] = ss.QueryErr
		}
	}
	if h.cluster != nil {
		detail["workers"] = h.workers
		detail["sessions_open"] = h.cluster.Open()
	}
	return ok, detail
}

// local adapts localDetail to the aggregator's LocalHealth signature.
func (h *healthSrc) local() (bool, any) {
	ok, detail := h.localDetail()
	return ok, detail
}

// health is the /healthz payload: local health plus worker liveness.
// Suspect workers are reported but tolerated (the watcher may be
// mid-redial); a down worker degrades the endpoint.
func (h *healthSrc) health() any {
	ok, detail := h.localDetail()
	h.mu.Lock()
	mon := h.mon
	h.mu.Unlock()
	if rows := mon.Snapshot(); len(rows) > 0 {
		states := make([]string, len(rows))
		down := 0
		for _, w := range rows {
			states[w.Rank] = w.State.String()
			if w.State == obscluster.StateDown {
				down++
			}
		}
		detail["worker_states"] = states
		if down > 0 {
			ok = false
			detail["workers_down"] = down
		}
	}
	return obs.Health{OK: ok, Detail: detail}
}

// answerEvents handles the `events [n]` serve command: the archive tail,
// oldest first, one event per line.
func answerEvents(ev *obscluster.EventLog, fields []string) string {
	n := 10
	if len(fields) > 2 {
		return "error: want `events` or `events <n>`"
	}
	if len(fields) == 2 {
		v, err := strconv.Atoi(fields[1])
		if err != nil || v <= 0 {
			return fmt.Sprintf("error: event count %q must be a positive integer", fields[1])
		}
		n = v
	}
	evs := ev.Recent(n)
	if len(evs) == 0 {
		return "events: none recorded"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d most recent", len(evs))
	for _, e := range evs {
		rank := "cluster"
		if e.Rank >= 0 {
			rank = fmt.Sprintf("r%d", e.Rank)
		}
		fmt.Fprintf(&b, "\n  %s %-16s %-8s %s", e.T.Format("15:04:05.000"), e.Kind, rank, e.Detail)
	}
	return b.String()
}

// runTop is `-mode top` (rangetop): a live terminal dashboard repainted
// every interval, driven entirely by the coordinator's /cluster/top
// endpoint — it opens no cluster connection of its own, so it can watch
// a coordinator it does not own. Rates (q/s, steps/s, feed B/s) are
// derived client-side by diffing successive snapshots.
func runTop(addr string, interval time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	t := time.NewTicker(interval)
	defer t.Stop()
	var prev *obscluster.TopSnap
	for {
		cur, err := obscluster.FetchTop(addr)
		fmt.Print("\x1b[H\x1b[2J") // cursor home + clear: repaint in place
		if err != nil {
			fmt.Printf("rangetop: %s unreachable: %v\n", addr, err)
			prev = nil
		} else {
			fmt.Print(obscluster.RenderTop(prev, cur, true))
			prev = cur
		}
		select {
		case <-sig:
			fmt.Println()
			return
		case <-t.C:
		}
	}
}

// answerLine parses and answers one serve-mode query line.
func answerLine(eng *engine.Engine[float64], dims int, line string) string {
	fields := strings.Fields(line)
	if fields[0] == "trace" {
		return answerTrace(eng.Trace, fields)
	}
	if len(fields) != 3 {
		return fmt.Sprintf("error: want `mode lo1,..,lo%d hi1,..,hi%d`, got %q", dims, dims, line)
	}
	lo, err := parseCoords(fields[1], dims)
	if err != nil {
		return "error: " + err.Error()
	}
	hi, err := parseCoords(fields[2], dims)
	if err != nil {
		return "error: " + err.Error()
	}
	box := geom.NewBox(lo, hi)
	switch fields[0] {
	case "count":
		c, err := eng.Count(box)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("count %v = %d", box, c)
	case "sum":
		s, err := eng.Aggregate(box)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("sum %v = %.4f", box, s)
	case "report":
		pts, err := eng.Report(box)
		if err != nil {
			return "error: " + err.Error()
		}
		ids := make([]string, len(pts))
		for i, pt := range pts {
			ids[i] = strconv.Itoa(int(pt.ID))
		}
		if len(ids) == 0 {
			return fmt.Sprintf("report %v = 0", box)
		}
		return fmt.Sprintf("report %v = %d: %s", box, len(pts), strings.Join(ids, " "))
	default:
		return fmt.Sprintf("error: unknown mode %q (want count, sum or report)", fields[0])
	}
}

// answerMutableLine parses and answers one mutable-serve line: the
// query commands ride the store-backed engine, the mutation commands
// apply to the store directly.
func answerMutableLine(eng *engine.Engine[struct{}], st *store.Store, dims int, line string) string {
	fields := strings.Fields(line)
	switch fields[0] {
	case "trace":
		return answerTrace(eng.Trace, fields)
	case "checkpoint":
		if len(fields) != 1 {
			return "error: checkpoint takes no arguments"
		}
		if err := st.Checkpoint(); err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("checkpoint at version %d (%d live points)", st.Version(), st.LiveN())
	case "insert", "delete":
		if len(fields) != 3 {
			return fmt.Sprintf("error: want `%s id x1,..,x%d`, got %q", fields[0], dims, line)
		}
		id, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return fmt.Sprintf("error: point id %q: %v", fields[1], err)
		}
		x, err := parseCoords(fields[2], dims)
		if err != nil {
			return "error: " + err.Error()
		}
		pt := geom.Point{ID: int32(id), X: x}
		var seq uint64
		if fields[0] == "insert" {
			seq, err = st.Insert(pt)
		} else {
			seq, err = st.Delete(pt)
		}
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%s %v -> version %d", fields[0], pt, seq)
	case "sum":
		return "error: sum is unavailable on the mutable store (tombstones need an invertible monoid)"
	}

	if len(fields) != 3 {
		return fmt.Sprintf("error: want `mode lo1,..,lo%d hi1,..,hi%d`, got %q", dims, dims, line)
	}
	lo, err := parseCoords(fields[1], dims)
	if err != nil {
		return "error: " + err.Error()
	}
	hi, err := parseCoords(fields[2], dims)
	if err != nil {
		return "error: " + err.Error()
	}
	box := geom.NewBox(lo, hi)
	switch fields[0] {
	case "count":
		c, err := eng.Count(box)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("count %v = %d", box, c)
	case "report":
		pts, err := eng.Report(box)
		if err != nil {
			return "error: " + err.Error()
		}
		ids := make([]string, len(pts))
		for i, pt := range pts {
			ids[i] = strconv.Itoa(int(pt.ID))
		}
		if len(ids) == 0 {
			return fmt.Sprintf("report %v = 0", box)
		}
		return fmt.Sprintf("report %v = %d: %s", box, len(pts), strings.Join(ids, " "))
	default:
		return fmt.Sprintf("error: unknown command %q (want count, report, insert, delete or checkpoint)", fields[0])
	}
}

// parseCoords reads a comma-separated rank-coordinate vector.
func parseCoords(s string, dims int) ([]geom.Coord, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("coordinate %q has %d dims, tree has %d", s, len(parts), dims)
	}
	out := make([]geom.Coord, dims)
	for i, part := range parts {
		v, err := strconv.ParseInt(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("coordinate %q: %v", part, err)
		}
		out[i] = geom.Coord(v)
	}
	return out, nil
}

// loadPoints reads raw CSV floats or generates a synthetic set, returning
// rank-normalized points.
func loadPoints(path string, n, d int, dist string, seed int64) ([]geom.Point, int) {
	if path == "" {
		var dd workload.Distribution
		switch dist {
		case "uniform":
			dd = workload.Uniform
		case "clustered":
			dd = workload.Clustered
		case "correlated":
			dd = workload.Correlated
		default:
			fmt.Fprintf(os.Stderr, "rangesearch: unknown distribution %q\n", dist)
			os.Exit(2)
		}
		return workload.Points(workload.PointSpec{N: n, Dims: d, Dist: dd, Seed: seed}), d
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangesearch: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rangesearch: reading %s: %v\n", path, err)
		os.Exit(1)
	}
	raw := make([][]float64, 0, len(rows))
	for i, row := range rows {
		vals := make([]float64, len(row))
		for j, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rangesearch: row %d col %d: %v\n", i+1, j+1, err)
				os.Exit(1)
			}
			vals[j] = v
		}
		raw = append(raw, vals)
	}
	if len(raw) == 0 {
		fmt.Fprintln(os.Stderr, "rangesearch: CSV is empty")
		os.Exit(1)
	}
	pts, _ := geom.NormalizeFloat64(raw)
	return pts, len(raw[0])
}
