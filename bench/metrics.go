package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
)

// This file is the one definition of the benchmark's workloads and
// metrics. BENCHMARK.json is generated from it (-manifest) and the smoke
// test fails when the two disagree.

// runSeconds is the measured window the driver asks for.
const runSeconds = 20

// Workload names.
const (
	wBatchLoop = "batch-loop-d3"
	wBatchTCP  = "batch-tcp-report"
	wServe     = "serve-open"
	wStore     = "store-mixed"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(runCfg) (*result, error)
}

var workloads = []workloadDef{
	{wBatchLoop, "the paper's batched model in process, d=3: all time in core phases A-C and the layered cascade; wire, transport, exec, engine and store idle, so a change to those must show no change here", runBatchLoop},
	{wBatchTCP, "the same core pipeline over 4 TCP workers, resident, with report queries: result points and element copies cross sockets, so wire, transport framing and exec steps dominate", runBatchTCP},
	{wServe, "open loop of single queries at a fixed rate through the micro-batching engine: queue wait, deadline flush, dedup and the answer cache decide latency, core is a small share", runServe},
	{wStore, "writes beside reads on the LSM store, both open loop: memtable scan, tombstones, level fan-out, flushes, shadow folds and the WAL do most of the work; ends with a recovery", runStore},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression (per-layer metrics have none). Moves says which
// end-to-end metric a per-layer metric should move and on which workload
// (W1..W4 in the order above); it is the prediction a later change is
// checked against.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd holds what a user of the system sees. Every workload reports
// every one of them, and none can read 0. An op is one batch in the two
// batch workloads, one query in serve-open and one read batch in
// store-mixed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.20},
	{Name: "alloc_bytes_per_query", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "heap_bytes_per_point", Unit: "B", Better: "lower", Bound: 0.03},
}

// perLayer holds the metrics of single layers, read in the traced pass.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Demoted from the end-to-end list under its own name: on unchanged
	// code no tail percentile stays inside a 0.25 bound on this box.
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Moves: "user-visible tail @all; set by store.max_build_ms @W4"},
	// Demoted likewise: process CPU per query follows the speed of this
	// shared box, which drifts by a quarter within the hour; on serve-open
	// ten runs of unchanged code spread 0.27 against the 0.25 bound.
	{Name: "cpu_us_per_query", Unit: "us", Better: "lower", Moves: "capacity cost @all; the only place core/layered gains show @W3,W4, whose rate is fixed"},
	// layered: ladder on one 4096-point element of the workload's d.
	{Name: "layered.build_ns_per_point", Unit: "ns", Better: "lower", Moves: "setup_s@W1"},
	{Name: "layered.count_ns_per_query", Unit: "ns", Better: "lower", Moves: "queries_per_s,cpu_us_per_query@W1; none@W3 p50 (deadline-bound)"},
	{Name: "layered.report_ns_per_point", Unit: "ns", Better: "lower", Moves: "latency_p50_ms@W2 (small share)"},
	{Name: "layered.heap_bytes_per_point", Unit: "B", Better: "lower", Moves: "heap_bytes_per_point@all, largest @W1"},
	// psort: ladder, one sample sort of the workload's points on p=4.
	{Name: "psort.sort_ns_per_point", Unit: "ns", Better: "lower", Moves: "setup_s@W1,W2"},
	// core: spans around BuildOn/MixedBatch, LastSearchStats sums.
	{Name: "core.construct_s", Unit: "s", Better: "lower", Moves: "setup_s@all"},
	{Name: "core.batch_us_per_query", Unit: "us", Better: "lower", Moves: "queries_per_s@W1,W2"},
	{Name: "core.hat_selections_per_query", Unit: "count", Better: "lower", Moves: "work per query (exact count)"},
	{Name: "core.subqueries_per_query", Unit: "count", Better: "lower", Moves: "work per query (exact count)"},
	{Name: "core.pairs_per_query", Unit: "count", Better: "lower", Moves: "work per query (exact count)"},
	{Name: "core.copies_per_batch", Unit: "count", Better: "lower", Moves: "latency_p50_ms,alloc_bytes_per_query@W2; ~0@W1"},
	{Name: "core.copy_cache_hit_share", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms@W2"},
	{Name: "core.install_us_per_batch", Unit: "us", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "core.us_per_query.loop_fabric", Unit: "us", Better: "lower", Moves: "four-cell ladder on W2 inputs"},
	{Name: "core.us_per_query.loop_resident", Unit: "us", Better: "lower", Moves: "four-cell ladder on W2 inputs"},
	{Name: "core.us_per_query.tcp_fabric", Unit: "us", Better: "lower", Moves: "four-cell ladder on W2 inputs"},
	{Name: "core.us_per_query.tcp_resident", Unit: "us", Better: "lower", Moves: "four-cell ladder on W2 inputs; = W2's path"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
	// cgm: Machine.Metrics() deltas, exact.
	{Name: "cgm.rounds_per_batch", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2 via rounds x superstep cost (exact count)"},
	{Name: "cgm.max_h_per_batch", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "cgm.volume_per_batch", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "cgm.work_imbalance", Unit: "ratio", Better: "lower", Moves: "bounds what balancing can win: batch time is the slowest rank's"},
	{Name: "cgm.superstep_us.loopback", Unit: "us", Better: "lower", Moves: "latency_p50_ms@W1,W3,W4"},
	{Name: "cgm.superstep_us.tcp", Unit: "us", Better: "lower", Moves: "latency_p50_ms,queries_per_s@W2"},
	{Name: "cgm.self_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
	// wire: wire.Stats() deltas and a ladder on 1024-element blocks.
	{Name: "wire.raw_blocks_per_query", Unit: "count", Better: "lower", Moves: "allocs_per_query@W2; 0@W1,W3,W4"},
	{Name: "wire.raw_bytes_per_query", Unit: "B", Better: "lower", Moves: "latency_p50_ms,alloc_bytes_per_query@W2; 0@W1,W3,W4"},
	{Name: "wire.gob_blocks_per_query", Unit: "count", Better: "lower", Moves: "must be 0 everywhere (exact count)"},
	{Name: "wire.encode_ns_per_kb", Unit: "ns", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "wire.decode_ns_per_kb", Unit: "ns", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "wire.decode_allocs_per_block", Unit: "count", Better: "lower", Moves: "allocs_per_query@W2"},
	{Name: "wire.est_us_per_query", Unit: "us", Better: "lower", Moves: "bytes x ladder ns/KB, beside the layer table"},
	// transport: CoordBytes, WireStats by frame kind, span around DialCluster.
	{Name: "transport.dial_s", Unit: "s", Better: "lower", Moves: "setup_s@W2"},
	{Name: "transport.coord_bytes_per_query", Unit: "B", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "transport.frames_per_batch.deposit", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "transport.frames_per_batch.column", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "transport.frames_per_batch.step", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "transport.frames_per_batch.step_reply", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W2"},
	{Name: "transport.est_us_per_query", Unit: "us", Better: "lower", Moves: "rounds x cgm.superstep_us.tcp / m: latency_p50_ms,queries_per_s@W2"},
	{Name: "transport.self_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
	// exec: the workers' exec_step_ns histograms.
	{Name: "exec.steps_per_batch", Unit: "count", Better: "lower", Moves: "cpu_us_per_query@W2"},
	{Name: "exec.step_us_per_batch", Unit: "us", Better: "lower", Moves: "cpu_us_per_query@W2"},
	{Name: "exec.self_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
	// engine: Engine.Stats() deltas and a saturated ladder.
	{Name: "engine.cache_hit_share", Unit: "ratio", Better: "higher", Moves: "cpu_us_per_query@W3"},
	{Name: "engine.queries_per_batch", Unit: "count", Better: "higher", Moves: "cpu_us_per_query@W3"},
	{Name: "engine.deadline_flush_share", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms@W3"},
	{Name: "engine.dedup_share", Unit: "ratio", Better: "higher", Moves: "cpu_us_per_query@W3"},
	{Name: "engine.saturated_us_per_query", Unit: "us", Better: "lower", Moves: "capacity@W3"},
	{Name: "engine.overhead_us_per_query", Unit: "us", Better: "lower", Moves: "latency_p50_ms@W3 beyond the deadline term"},
	{Name: "engine.wait_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms@W3"},
	{Name: "engine.self_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
	// store: spans around the public calls, Store.Stats() deltas, directory stat.
	{Name: "store.mutate_p50_ms", Unit: "ms", Better: "lower", Moves: "user-visible @W4 (one 32-point insert+delete call)"},
	{Name: "store.mutate_p99_ms", Unit: "ms", Better: "lower", Moves: "user-visible @W4"},
	{Name: "store.recover_s", Unit: "s", Better: "lower", Moves: "user-visible @W4"},
	{Name: "store.disk_bytes_per_point", Unit: "B", Better: "lower", Moves: "user-visible @W4"},
	{Name: "store.steady_heap_bytes_per_point", Unit: "B", Better: "lower", Moves: "heap after the window, compactor idle: levels, shadow, memtable, copy caches @W4"},
	{Name: "store.insert_us_per_point", Unit: "us", Better: "lower", Moves: "store.mutate_p50_ms@W4"},
	{Name: "store.delete_us_per_point", Unit: "us", Better: "lower", Moves: "store.mutate_p50_ms@W4"},
	{Name: "store.read_us_per_query", Unit: "us", Better: "lower", Moves: "latency_p50_ms@W4"},
	{Name: "store.levels_mean", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W4"},
	{Name: "store.memtable_mean", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W4"},
	{Name: "store.shadow_mean", Unit: "count", Better: "lower", Moves: "latency_p50_ms@W4"},
	{Name: "store.flushes", Unit: "count", Better: "lower", Moves: "latency_p99_ms,store.mutate_p99_ms@W4 (the stall)"},
	{Name: "store.compactions", Unit: "count", Better: "lower", Moves: "latency_p99_ms,store.mutate_p99_ms@W4"},
	{Name: "store.build_wall_share", Unit: "ratio", Better: "lower", Moves: "latency_p99_ms@W4"},
	{Name: "store.max_build_ms", Unit: "ms", Better: "lower", Moves: "latency_p99_ms@W4"},
	{Name: "store.wal_bytes_per_mutation", Unit: "B", Better: "lower", Moves: "store.disk_bytes_per_point@W4"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "store.disk_bytes_per_point@W4"},
	{Name: "store.checkpoint_bytes_per_point", Unit: "B", Better: "lower", Moves: "store.disk_bytes_per_point@W4"},
	{Name: "store.recover_replayed_records", Unit: "count", Better: "lower", Moves: "store.recover_s@W4"},
	{Name: "store.self_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
	// persist: ladder, Save/LoadPoints of the workload's points to memory.
	{Name: "persist.save_ns_per_point", Unit: "ns", Better: "lower", Moves: "store.checkpoint_ms@W4"},
	{Name: "persist.load_ns_per_point", Unit: "ns", Better: "lower", Moves: "store.recover_s@W4"},
	{Name: "persist.bytes_per_point", Unit: "B", Better: "lower", Moves: "store.disk_bytes_per_point@W4"},
	// obs: what the instruments cost.
	{Name: "obs.overhead_share", Unit: "ratio", Better: "lower", Moves: "traced cpu_us_per_query over untraced - 1 (ROADMAP 5d ceiling 0.02)"},
	{Name: "obs.spans_per_batch", Unit: "count", Better: "lower", Moves: "obs.overhead_share"},
	// bench: the harness's own health.
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower", Moves: "trust in latency_*@W3,W4"},
	{Name: "bench.backlog_max", Unit: "count", Better: "lower", Moves: "trust in latency_*@W3,W4"},
	{Name: "bench.achieved_rate", Unit: "ratio", Better: "higher", Moves: "achieved over offered rate @W3,W4"},
	{Name: "bench.slice_spread", Unit: "ratio", Better: "lower", Moves: "max/min throughput over 10 slices of the traced window"},
	{Name: "bench.unaccounted_share", Unit: "ratio", Better: "lower", Moves: "layer table row"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Spread is how far the run's trials lie apart around the reported
	// one, and Trials the trial values themselves; -compare reads them to
	// tell "unchanged" or "worse" from "cannot tell" when a set holds a
	// single run per workload.
	Spread map[string]float64   `json:"spread,omitempty"`
	Trials map[string][]float64 `json:"trials,omitempty"`
	// Tables are the human-readable blocks of the traced pass.
	Tables []string `json:"-"`
}

func newResult(cfg runCfg, name string) *result {
	return &result{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: make(map[string]float64), Spread: make(map[string]float64), Trials: make(map[string][]float64)}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// setTiming records a timing from the second-best of a run's trials
// (the best when there are fewer than three). Its spread is the distance
// from the best to the third-best trial as a share of the reported one.
func (r *result) setTiming(name string, v []float64, higherIsBetter bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	pick := min(1, len(s)-1)
	if len(s) < 3 {
		pick = 0
	}
	r.Metrics[name], r.Trials[name] = s[pick], s
	if s[pick] != 0 {
		r.Spread[name] = math.Abs(s[min(2, len(s)-1)]-s[0]) / s[pick]
	}
}

// setCount records a count from the median of a run's trials; its spread
// is (max-min)/median.
func (r *result) setCount(name string, v []float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	r.Metrics[name], r.Trials[name] = med, s
	if med != 0 {
		r.Spread[name] = (s[len(s)-1] - s[0]) / med
	}
}

// defs returns the metric table the run reports against.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// check fills per-layer metrics that do not apply to this workload with
// 0 and rejects a run that misses an end-to-end metric, reports one the
// table does not name, or holds a value that is not a finite number.
func (r *result) check() error {
	known := make(map[string]bool)
	for _, d := range r.defs() {
		known[d.Name] = true
		v, ok := r.Metrics[d.Name]
		if !ok && r.Trace {
			r.Metrics[d.Name] = 0
			continue
		}
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, v)
		}
		if !r.Trace && v == 0 {
			return fmt.Errorf("%s: end-to-end metric %s reads 0", r.Workload, d.Name)
		}
	}
	for name := range r.Metrics {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not in the table", r.Workload, name)
		}
	}
	return nil
}

// lastLine renders the driver's result object.
func (r *result) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]mv)}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}
