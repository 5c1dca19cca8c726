package transport_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/transport"
	"repro/internal/workload"
)

// startWorkers spins up p worker processes (in-process) and returns them
// with their addresses.
func startWorkers(t *testing.T, p int) ([]*transport.Worker, []string) {
	t.Helper()
	workers := make([]*transport.Worker, p)
	addrs := make([]string, p)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	return workers, addrs
}

// TestParallelFeedCounters pins the rank-parallel data plane: a default
// streaming bulk load on a TCP resident cluster moves its chunks as
// feed_call frames on per-rank direct connections — every worker's own
// /metrics shows nonzero feed counters for its rank — and the
// coordinator's control connections carry no chunk step calls beyond
// the two begin/commit-style control frames per rank.
func TestParallelFeedCounters(t *testing.T) {
	const p, n = 4, 4000
	workers, addrs := startWorkers(t, p)
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Clustered, Seed: 7})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BulkLoad(mach, core.SliceChunks(pts, 128), core.IngestConfig{Window: 4})
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	defer tree.Machine().Close()

	for i, w := range workers {
		calls := w.Obs().Counter(fmt.Sprintf(`worker_feed_calls_total{rank="%d"}`, i)).Value()
		if calls == 0 {
			t.Fatalf("worker %d served no feed calls — the load did not take the rank-parallel path", i)
		}
		if fs := w.WireStats()["feed_call"]; fs.Frames != calls {
			t.Fatalf("worker %d: %d feed_call frames vs %d feed calls counted", i, fs.Frames, calls)
		}
	}
	if fs := cl.WireStats()["feed_call"]; fs.Frames == 0 {
		t.Fatal("coordinator-side kind counters saw no feed_call frames")
	}
}

// TestWorkerDeathMidParallelFeedAborts is the fail-fast contract of the
// rank-parallel feeds: killing a worker mid-load must (a) surface a
// prompt diagnostic from BulkLoad (no feeder deadlocks on its window),
// (b) poison the machine so the session cannot be built on half a
// stream, and (c) leak no goroutines — every feeder, ack reader and
// worker-side feed handler unwinds.
func TestWorkerDeathMidParallelFeedAborts(t *testing.T) {
	const p, n = 4, 20000
	workers, addrs := startWorkers(t, p)
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	base := runtime.NumGoroutine()
	pts := workload.Points(workload.PointSpec{N: n, Dims: 2, Dist: workload.Uniform, Seed: 3})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	// Kill deep enough into the stream that every rank's ingest/begin has
	// completed and the per-rank feeds are pipelining chunks — the death
	// must surface through the feed ack readers, not the begin RPC.
	src := &killSource{src: core.SliceChunks(pts, 64), after: 150, kill: func() { workers[1].Close() }}

	done := make(chan error, 1)
	go func() {
		_, err := core.BulkLoad(mach, src, core.IngestConfig{Window: 4})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parallel-feed bulk load deadlocked after losing a worker mid-stream")
	}
	if err == nil {
		t.Fatal("bulk load with a dead worker reported success")
	}
	t.Logf("diagnostic: %v", err)

	// (b) The machine is poisoned: the dead feed became a session abort.
	// (The ref is never resolved — the poison check rejects first.)
	if _, err := mach.OpenFeed(0, exec.Ref{Program: "ingest", Step: "chunk"}, cgm.FeedOptions{}); err == nil {
		t.Fatal("poisoned machine still opens feeds")
	} else if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("expected an aborted-machine diagnostic, got: %v", err)
	}

	// (c) No leaked goroutines: feeders, ack readers and worker-side feed
	// handlers all unwind once the session aborts.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after feed abort: %d > %d baseline\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
