package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestEngineObservedMatchesPlain serves the same workload through an
// instrumented engine (registry + tracer + 0s slow-query threshold, so
// every batch logs a span tree) and a plain one, scraping /metrics-style
// expositions concurrently the whole time. Answers must be identical,
// counters monotone, and the per-mode latency histograms must account
// for every submitted query. Run under -race this is the proof that
// observability is free of data races on the serving hot path.
func TestEngineObservedMatchesPlain(t *testing.T) {
	// Two independent fixtures over the identical deterministic point
	// set: each engine owns its machine (a machine supports one Run at a
	// time, and the two engines dispatch concurrently).
	fx := newFixture(t, 1<<10, 4)
	fxPlain := newFixture(t, 1<<10, 4)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	var logMu sync.Mutex
	var slowLogs int
	cfg := Config{BatchSize: 16, CacheSize: -1,
		Obs: reg, Tracer: tracer, SlowQuery: time.Nanosecond,
		SlowLog: func(format string, args ...any) {
			logMu.Lock()
			slowLogs++
			logMu.Unlock()
			if !strings.Contains(fmt.Sprintf(format, args...), "trace") {
				t.Errorf("slow-query log lacks a span tree: %q", fmt.Sprintf(format, args...))
			}
		}}
	eng := WithAggregate(fx.tree, fx.agg, cfg)
	defer eng.Close()
	plain := WithAggregate(fxPlain.tree, fxPlain.agg, Config{BatchSize: 16, CacheSize: -1})
	defer plain.Close()

	const m = 96
	boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: 2, N: fx.n, Selectivity: 0.02, Seed: 31})

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		var lastBatches float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(time.Millisecond)
			var buf bytes.Buffer
			if err := reg.WriteProm(&buf); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			for _, line := range strings.Split(buf.String(), "\n") {
				if rest, ok := strings.CutPrefix(line, "engine_batches_total "); ok {
					var v float64
					fmt.Sscanf(rest, "%g", &v)
					if v < lastBatches {
						t.Errorf("engine_batches_total went backwards: %v -> %v", lastBatches, v)
					}
					lastBatches = v
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := range boxes {
		wg.Add(1)
		go func(b geom.Box, i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				got, err := eng.Count(b)
				want, werr := plain.Count(b)
				if err != nil || werr != nil || got != want {
					t.Errorf("count %v: instrumented (%d,%v) vs plain (%d,%v)", b, got, err, want, werr)
				}
			case 1:
				got, err := eng.Aggregate(b)
				want, werr := plain.Aggregate(b)
				if err != nil || werr != nil || got != want {
					t.Errorf("sum %v: instrumented (%v,%v) vs plain (%v,%v)", b, got, err, want, werr)
				}
			default:
				got, err := eng.Report(b)
				want, werr := plain.Report(b)
				if err != nil || werr != nil || len(got) != len(want) {
					t.Errorf("report %v: instrumented (%d pts,%v) vs plain (%d pts,%v)", b, len(got), err, len(want), werr)
				}
			}
		}(boxes[i], i)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	// Every submission must have landed in exactly one latency histogram.
	var latTotal int64
	for _, mode := range []string{"count", "aggregate", "report"} {
		latTotal += reg.Histogram(`engine_query_latency_ns{mode="` + mode + `"}`).Count()
	}
	if latTotal != m {
		t.Errorf("latency histograms hold %d observations, want %d", latTotal, m)
	}
	if eng.Stats().Batches == 0 {
		t.Fatalf("no batches dispatched")
	}
	logMu.Lock()
	if slowLogs == 0 {
		t.Errorf("0ns slow-query threshold never fired")
	}
	logMu.Unlock()

	// The last batch's span tree is retrievable by the serve `trace`
	// command's path.
	tree := eng.Trace(0)
	if !strings.Contains(tree, "dispatch") {
		t.Errorf("Trace(0) lacks the dispatch span:\n%s", tree)
	}
	if eng.LastTrace() == 0 {
		t.Errorf("LastTrace is 0 after %d batches", eng.Stats().Batches)
	}
}

// TestStoreEngineTraces checks the store dispatch path stamps trace IDs
// through MixedTraced: a store-backed engine's batches produce span
// trees too, and store timing histograms fill in.
func TestStoreEngineTraces(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	st, err := store.Open("", store.Config{Dims: 2, P: 4, MemtableCap: 64, Obs: reg})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer st.Close()
	pts := workload.Points(workload.PointSpec{N: 512, Dims: 2, Dist: workload.Uniform, Seed: 7})
	if _, err := st.InsertBatch(pts); err != nil {
		t.Fatalf("insert: %v", err)
	}
	eng := NewStore(st, Config{BatchSize: 8, Obs: reg, Tracer: tracer})
	defer eng.Close()

	boxes := workload.Boxes(workload.QuerySpec{M: 8, Dims: 2, N: 512, Selectivity: 0.1, Seed: 9})
	for _, b := range boxes {
		if _, err := eng.Count(b); err != nil {
			t.Fatalf("count: %v", err)
		}
	}
	id := eng.LastTrace()
	if id == 0 {
		t.Fatalf("store-backed engine recorded no trace")
	}
	spans := tracer.Spans(id)
	if len(spans) == 0 {
		t.Fatalf("trace %d has no spans", id)
	}
	// Store gauges flow through the registry's collector.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	for _, series := range []string{"store_live_points 512", "store_seq "} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("exposition lacks %q", series)
		}
	}
}
