package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// nTrials is how many independent trials an untraced run makes. Each
// trial sets the system up afresh, warms it up and measures one window
// of seconds/nTrials. The reference box is a shared 2-core VM whose speed
// drops by a quarter for 5-15 s at a time, and p ranks in lock step feel
// every stall of either core, so one long window reads whichever regime
// it happened to sit in. Interference only ever slows a trial down, so a
// run reports each timing from its second-best trial: one lucky trial is
// ignored, three disturbed ones do not matter. Counts (allocations, heap)
// are not one-sided and are reported from the median trial.
const nTrials = 5

// opLimit is the latency past which an op counts as failed.
const opLimit = time.Second

// cpuNow reports the process's cumulative user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapNow reports the live heap after two collections (the second one
// frees what the first one's finalizers and sweeps released).
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPer reports the live heap gained since before, per point.
func heapPer(before uint64, points int) float64 {
	return (float64(heapNow()) - float64(before)) / float64(points)
}

// op is one measured operation: a batch in the closed-loop workloads, a
// query in serve-open, a read batch (or a mutate call) in store-mixed.
// Times are nanoseconds since the window start. An op that never
// completed keeps end == 0.
type op struct {
	due, end int64
	queries  int32
	failed   bool
}

func (o op) latency() time.Duration { return time.Duration(o.end - o.due) }

// opLog is a fixed-capacity op record the load generator fills without
// locks: slot i belongs to whoever was handed index i.
type opLog struct {
	ops []op
	n   int // slots handed out (single generator goroutine)
}

func newOpLog(capacity int) *opLog { return &opLog{ops: make([]op, capacity)} }

// next hands out the next slot, or -1 when the log is full (the window
// ran longer than it was sized for; the generator then stops).
func (l *opLog) next() int {
	if l.n == len(l.ops) {
		return -1
	}
	l.n++
	return l.n - 1
}

func (l *opLog) done() []op { return l.ops[:l.n] }

// window is what one measured window observed from outside the system:
// wall time, process CPU and the allocation counters.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// measure runs body for about d. body receives the window start and end
// and returns once its last op has completed, which is where the window
// closes. The window opens right after a forced collection: warm-up grows
// the live heap (W1's copy caches double it), and without this the one
// long mark phase that follows lands inside some windows and not others.
func measure(d time.Duration, body func(start, end time.Time)) *window {
	w := &window{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs, w.bytes = ms.Mallocs, ms.TotalAlloc
	start := time.Now()
	cpu := cpuNow()
	body(start, start.Add(d))
	w.wall = time.Since(start)
	w.cpu = cpuNow() - cpu
	runtime.ReadMemStats(&ms)
	w.mallocs, w.bytes = ms.Mallocs-w.mallocs, ms.TotalAlloc-w.bytes
	return w
}

// summary is the end-to-end view of one window's ops.
type summary struct {
	attempted, failed int64
	queries           int64           // queries answered by ops that did not fail
	lat               []time.Duration // sorted latencies of those ops
	qps, p50ms, cpuUs float64
	allocs, bytes     float64 // per query
}

// summarize folds a window's ops into the end-to-end quantities. An op
// that errored, was refused, never completed or took longer than opLimit
// counts as failed and contributes no latency sample.
func summarize(w *window, ops []op) summary {
	var s summary
	for _, o := range ops {
		s.attempted++
		if o.failed || o.end == 0 || o.latency() > opLimit {
			s.failed++
			continue
		}
		s.queries += int64(o.queries)
		s.lat = append(s.lat, o.latency())
	}
	slices.Sort(s.lat)
	q := float64(max(s.queries, 1))
	s.qps = float64(s.queries) / w.wall.Seconds()
	s.p50ms = ms(quantile(s.lat, 0.5))
	s.cpuUs = us(w.cpu) / q
	s.allocs, s.bytes = float64(w.mallocs)/q, float64(w.bytes)/q
	return s
}

// sliceSpread cuts a window into k slices by op completion time and
// returns max/min of the slices' throughput (an empty slice counts as one
// query, to stay finite): how far the box wandered inside one window.
func sliceSpread(w *window, ops []op, k int) float64 {
	per := make([]float64, k)
	for _, o := range ops {
		if !o.failed && o.end != 0 {
			per[min(int(o.end*int64(k)/int64(max(w.wall, 1))), k-1)] += float64(o.queries)
		}
	}
	sort.Float64s(per)
	return per[k-1] / max(per[0], 1)
}

// trial is one of an untraced run's nTrials: a fresh set-up and one
// measured window on it.
type trial struct {
	setupS       float64
	heapPerPoint float64
	summary
}

// fillEndToEnd reports the end-to-end metrics of a run from its trials:
// timings from the second-best trial, counts from the median trial. The
// pooled p99 and the median trial's CPU per query are printed beside them
// but are not end-to-end metrics (see README: neither repeats within a
// bound on this box).
func fillEndToEnd(r *result, trials []trial) {
	col := func(f func(trial) float64) []float64 {
		v := make([]float64, len(trials))
		for i, t := range trials {
			v[i] = f(t)
		}
		return v
	}
	var pooled []time.Duration
	for _, t := range trials {
		r.Attempted += t.attempted
		r.Failed += t.failed
		pooled = append(pooled, t.lat...)
	}
	slices.Sort(pooled)
	r.setTiming("setup_s", col(func(t trial) float64 { return t.setupS }), false)
	r.setTiming("queries_per_s", col(func(t trial) float64 { return t.qps }), true)
	r.setTiming("latency_p50_ms", col(func(t trial) float64 { return t.p50ms }), false)
	r.setCount("allocs_per_query", col(func(t trial) float64 { return t.allocs }))
	r.setCount("alloc_bytes_per_query", col(func(t trial) float64 { return t.bytes }))
	r.setCount("heap_bytes_per_point", col(func(t trial) float64 { return t.heapPerPoint }))
	r.Tables = append(r.Tables, fmt.Sprintf("%-40s %-6s %.6g   (pooled over %d trials, %d samples; not gated)\n",
		"latency_p99_ms", "ms", ms(quantile(pooled, 0.99)), len(trials), len(pooled)))
	r.Tables = append(r.Tables, fmt.Sprintf("%-40s %-6s %.6g   (median trial; not gated)\n",
		"cpu_us_per_query", "us", median(col(func(t trial) float64 { return t.cpuUs }))))
}

// sortedCopy returns the durations in increasing order.
func sortedCopy(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// quantile reads the q-quantile of sorted latencies by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pace runs an open loop: it calls fire(due) for arrival i at
// start + i/rate, never earlier, and as soon after as the generator is
// scheduled, until end or until fire returns false. A fire that starts a
// goroutine models independent users; a fire that does the work inline
// models one sequential client whose backlog grows behind a stall. It
// returns how late each arrival left (now - due), which is part of every
// latency the loop reports.
func pace(start, end time.Time, rate float64, fire func(due time.Time) bool) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	late := make([]time.Duration, 0, int(end.Sub(start)/gap)+1)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * gap)
		if !due.Before(end) {
			return late
		}
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		late = append(late, now.Sub(due))
		if !fire(due) {
			return late
		}
	}
}
