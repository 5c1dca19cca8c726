package transport_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runExpectAbort runs prog expecting a machine abort; it returns the
// panic message, failing the test on a clean return or a hang.
func runExpectAbort(t *testing.T, mach *cgm.Machine, prog func(*cgm.Proc)) string {
	t.Helper()
	got := make(chan string, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				got <- r.(string)
				return
			}
			got <- ""
		}()
		mach.Run(prog)
	}()
	select {
	case msg := <-got:
		if msg == "" {
			t.Fatal("run finished cleanly, expected an abort")
		}
		return msg
	case <-time.After(30 * time.Second):
		t.Fatal("machine deadlocked instead of aborting")
		return ""
	}
}

// TestTCPExchangeTransposes is the basic fabric check: the all-to-all
// really transposes through the worker mesh.
func TestTCPExchangeTransposes(t *testing.T) {
	cl := startCluster(t, 4, cgm.Config{})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	var results [4][][]int
	mach.Run(func(pr *cgm.Proc) {
		out := make([][]int, 4)
		for j := 0; j < 4; j++ {
			out[j] = []int{pr.Rank()*10 + j}
		}
		results[pr.Rank()] = cgm.Exchange(pr, "transpose", out)
	})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got, want := results[i][j][0], j*10+i; got != want {
				t.Fatalf("proc %d from %d: got %d want %d", i, j, got, want)
			}
		}
	}
}

// TestTCPSPMDDivergenceAborts: the divergence is detected on the remote
// side — workers compare the stamps that arrive over the wire — and the
// coordinator surfaces the diagnostic as a machine abort.
func TestTCPSPMDDivergenceAborts(t *testing.T) {
	cl := startCluster(t, 4, cgm.Config{})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	msg := runExpectAbort(t, mach, func(pr *cgm.Proc) {
		label := "a"
		if pr.Rank() == 1 {
			label = "b"
		}
		cgm.Barrier(pr, label)
	})
	if !strings.Contains(msg, "SPMD violation") {
		t.Fatalf("divergence diagnostic lost: %v", msg)
	}
}

// TestWorkerDeathMidSuperstepAborts kills one worker process while the
// machine is mid-run: the coordinator must surface a diagnostic abort
// (never deadlock), and the machine must fail fast on reuse with the
// original cause — the satellite contract on both counts.
func TestWorkerDeathMidSuperstepAborts(t *testing.T) {
	workers := make([]*transport.Worker, 4)
	addrs := make([]string, 4)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}

	var rounds atomic.Int64
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		<-started
		workers[2].Close() // the kill, while supersteps are in flight
	}()
	msg := runExpectAbort(t, mach, func(pr *cgm.Proc) {
		for i := 0; i < 10000; i++ {
			cgm.Barrier(pr, "spin")
			if pr.Rank() == 0 {
				rounds.Add(1)
				if once.CompareAndSwap(false, true) {
					close(started)
				}
			}
		}
	})
	if rounds.Load() == 0 {
		t.Fatal("worker died before any superstep completed; kill was not mid-run")
	}
	if rounds.Load() >= 10000 {
		t.Fatal("program ran to completion; the kill changed nothing")
	}
	if !strings.Contains(msg, "transport:") {
		t.Fatalf("abort lacks a transport diagnostic: %v", msg)
	}

	// Reuse must fail fast with the original cause, not hang or rerun.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run on the aborted machine must fail fast")
		}
		if !strings.Contains(r.(string), "earlier run") {
			t.Fatalf("fail-fast panic lost the cause: %v", r)
		}
	}()
	mach.Run(func(pr *cgm.Proc) {})
}

// killingProvider hands out its cluster's machines and closes one worker
// right after, so the build on the machine loses that rank before its
// first superstep.
type killingProvider struct {
	*transport.Cluster
	kill func()
}

func (k killingProvider) NewMachine() (*cgm.Machine, error) {
	mach, err := k.Cluster.NewMachine()
	k.kill()
	return mach, err
}

// TestBuildOnWorkerDeathIsAnError: BuildOn (and so drtree.ClusterBuild)
// returns a worker lost mid-build as an error naming its rank, on both
// residencies, rather than panicking the caller.
func TestBuildOnWorkerDeathIsAnError(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 2000, Dims: 2, Dist: workload.Uniform, Seed: 5})
	for _, resident := range []bool{false, true} {
		t.Run(fmt.Sprintf("resident=%t", resident), func(t *testing.T) {
			workers, addrs := startWorkers(t, 4)
			cl, err := transport.DialCluster(addrs, cgm.Config{Resident: resident})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			pv := killingProvider{Cluster: cl, kill: func() { workers[1].Close() }}
			done := make(chan error, 1)
			go func() {
				_, err := core.BuildOn(pv, pts, core.BackendLayered)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("BuildOn deadlocked after losing a worker")
			}
			if err == nil {
				t.Fatal("BuildOn over a dead worker reported success")
			}
			t.Logf("diagnostic: %v", err)
			if msg := err.Error(); !strings.Contains(msg, "rank 1") && !strings.Contains(msg, "worker 1") {
				t.Fatalf("the error does not name rank 1: %v", err)
			}
		})
	}
}

// TestStoreFlushWorkerDeathIsAnError: a durable store whose provider
// loses worker 1 as the flush's level build starts records the abort as
// the compaction error, naming the rank, on both residencies; mutations
// then fail with it, and the store still closes.
func TestStoreFlushWorkerDeathIsAnError(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 200, Dims: 2, Dist: workload.Uniform, Seed: 4})
	for _, resident := range []bool{false, true} {
		t.Run(fmt.Sprintf("resident=%t", resident), func(t *testing.T) {
			workers, addrs := startWorkers(t, 2)
			cl, err := transport.DialCluster(addrs, cgm.Config{Resident: resident})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			pv := killingProvider{Cluster: cl, kill: func() { workers[1].Close() }}
			st, err := store.Open(t.TempDir(), store.Config{Dims: 2, Provider: pv, MemtableCap: 64, Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.InsertBatch(pts); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				st.Compact()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the flush deadlocked after losing a worker")
			}
			msg := st.Stats().CompactErr
			t.Logf("diagnostic: %s", msg)
			if !strings.Contains(msg, "rank 1") && !strings.Contains(msg, "worker 1") {
				t.Fatalf("the flush error does not name rank 1: %q", msg)
			}
			fresh := []geom.Point{{ID: 10_000, X: []geom.Coord{1, 2}}}
			if _, err := st.InsertBatch(fresh); err == nil || !strings.Contains(err.Error(), "compaction failed") {
				t.Fatalf("mutation after a failed flush: %v, want the compaction error", err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close after a failed flush: %v", err)
			}
		})
	}
}

// TestForestPartNodesAfterWorkerDeathIsAnError: the per-rank forest sizes
// of a resident tree whose worker 1 is gone are an error naming the rank,
// not a process panic.
func TestForestPartNodesAfterWorkerDeathIsAnError(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pts := workload.Points(workload.PointSpec{N: 200, Dims: 2, Dist: workload.Uniform, Seed: 4})
	tree, err := core.BuildOn(cl, pts, core.BackendLayered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.ForestPartNodes(); err != nil {
		t.Fatalf("forest sizes on a healthy cluster: %v", err)
	}

	workers[1].Close()

	_, err = tree.ForestPartNodes()
	if err == nil {
		t.Fatal("forest sizes over a dead resident worker succeeded")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("the error does not name rank 1: %v", err)
	}
}

// TestAbortBeforeFirstDepositFreesWorkers: when a rank dies before its
// first deposit of a run, the other ranks' workers are stuck collecting
// a block that will never be routed (the dead rank's worker dialed no
// peers). The abort must still free every worker session — the
// coordinator conns closing is the only signal available.
func TestAbortBeforeFirstDepositFreesWorkers(t *testing.T) {
	workers := make([]*transport.Worker, 4)
	addrs := make([]string, 4)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	msg := runExpectAbort(t, mach, func(pr *cgm.Proc) {
		if pr.Rank() == 1 {
			panic("rank 1 dies before its first exchange")
		}
		cgm.Barrier(pr, "never-completes")
	})
	if !strings.Contains(msg, "rank 1 dies") {
		t.Fatalf("cause lost: %v", msg)
	}
	// Every worker must drain its session without Worker.Close's help.
	deadline := time.Now().Add(5 * time.Second)
	for i, w := range workers {
		for w.Sessions() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d leaked %d sessions after the abort", i, w.Sessions())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestDialClusterRejectsDuplicateAddresses: one worker cannot play two
// ranks; the mistake must fail at dial time with a clear diagnostic,
// not later as a confusing duplicate-session error from NewMachine.
func TestDialClusterRejectsDuplicateAddresses(t *testing.T) {
	w, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, err = transport.DialCluster([]string{w.Addr(), w.Addr()}, cgm.Config{})
	if err == nil || !strings.Contains(err.Error(), "two ranks") {
		t.Fatalf("duplicate addresses not rejected clearly: %v", err)
	}
}

// TestClusterCloseFailsMachinesFast: machines from a closed cluster are
// unusable with a clear diagnostic.
func TestClusterCloseFailsMachinesFast(t *testing.T) {
	cl := startCluster(t, 2, cgm.Config{})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	mach.Run(func(pr *cgm.Proc) { cgm.Barrier(pr, "ok") })
	cl.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run after cluster close must fail")
		}
		if !strings.Contains(r.(string), "closed") {
			t.Fatalf("unexpected diagnostic: %v", r)
		}
	}()
	mach.Run(func(pr *cgm.Proc) { cgm.Barrier(pr, "late") })
}

// TestWorkerCloseWithIdleSession: Close must sever the incoming
// peer-block conns of sessions that are alive but idle (no superstep in
// flight, so no abort cascade will close them from the remote side) —
// otherwise Close blocks forever on their reader goroutines, and a
// rangeworker never exits on SIGTERM while a coordinator merely holds a
// session open.
func TestWorkerCloseWithIdleSession(t *testing.T) {
	workers := make([]*transport.Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	// One completed superstep establishes the worker-to-worker conns;
	// the session then sits idle.
	mach.Run(func(pr *cgm.Proc) { cgm.Barrier(pr, "establish") })

	done := make(chan struct{})
	go func() {
		workers[0].Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Worker.Close hung on an idle session's peer conns")
	}
}

// TestWorkerSessionsDrain: closing the machines tears their sessions
// down on the worker side.
func TestWorkerSessionsDrain(t *testing.T) {
	w, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl, err := transport.DialCluster([]string{w.Addr()}, cgm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	mach.Run(func(pr *cgm.Proc) { cgm.Barrier(pr, "b") })
	if got := w.Sessions(); got != 1 {
		t.Fatalf("worker sees %d sessions, want 1", got)
	}
	mach.Close()
	deadline := time.Now().Add(5 * time.Second)
	for w.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session not torn down; %d still live", w.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResidentWorkerDeathAbortsQuery kills a worker holding resident
// phase-C state: the next query batch must abort with a transport
// diagnostic (not deadlock), and the poisoned machine must fail fast on
// reuse with the original cause — the satellite contract under
// residency.
func TestResidentWorkerDeathAbortsQuery(t *testing.T) {
	workers := make([]*transport.Worker, 4)
	addrs := make([]string, 4)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pts := workload.Points(workload.PointSpec{N: 400, Dims: 2, Dist: workload.Clustered, Seed: 9})
	boxes := workload.Boxes(workload.QuerySpec{M: 16, Dims: 2, N: 400, Selectivity: 0.1, Seed: 2})
	tree, err := core.BuildOn(cl, pts, core.BackendLayered)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.CountBatch(boxes); len(got) != len(boxes) {
		t.Fatalf("pre-kill sanity batch returned %d answers", len(got))
	}

	workers[2].Close() // the worker's session — and its forest part — dies

	msg := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		tree.CountBatch(boxes)
		return ""
	}()
	if msg == "" {
		t.Fatal("query batch on a cluster missing resident state finished cleanly")
	}
	if !strings.Contains(msg, "transport:") && !strings.Contains(msg, "resident") {
		t.Fatalf("abort lacks a diagnostic: %v", msg)
	}

	// Fail-fast reuse with the original cause.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reusing the aborted machine must fail fast")
		}
		if !strings.Contains(fmt.Sprint(r), "earlier run") {
			t.Fatalf("fail-fast panic lost the cause: %v", r)
		}
	}()
	tree.CountBatch(boxes)
}

// TestResidentWorkerDeathSurfacesQueryErr: the same failure through the
// mutable store must come back as an error on the batch and be recorded
// in Stats.QueryErr (mirroring Stats.CompactErr), with the engine's
// dispatch goroutine alive — not panicked.
func TestResidentWorkerDeathSurfacesQueryErr(t *testing.T) {
	workers := make([]*transport.Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := store.Open("", store.Config{Dims: 2, Provider: cl, MemtableCap: 64, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pts := workload.Points(workload.PointSpec{N: 200, Dims: 2, Dist: workload.Uniform, Seed: 4})
	if _, err := st.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	boxes := workload.Boxes(workload.QuerySpec{M: 8, Dims: 2, N: 200, Selectivity: 0.1, Seed: 6})

	eng := engine.NewStore(st, engine.Config{BatchSize: 4})
	defer eng.Close()
	if _, err := eng.Count(boxes[0]); err != nil {
		t.Fatalf("pre-kill engine count: %v", err)
	}

	workers[1].Close()

	if _, err := eng.Count(boxes[1]); err == nil {
		t.Fatal("engine count against a dead resident worker succeeded")
	}
	if qerr := st.Stats().QueryErr; qerr == "" {
		t.Fatal("Stats.QueryErr empty after an aborted query batch")
	}
	// The engine loop survived the abort: a second query gets an error
	// reply, not a hang on a dead dispatch goroutine.
	if _, err := eng.Count(boxes[2]); err == nil {
		t.Fatal("second engine count succeeded on a poisoned level machine")
	}
	// Mutations are still accepted — the write path does not depend on
	// the poisoned query machines (compaction may later fail and set
	// CompactErr, which is its own, separately-tested contract).
	fresh := []geom.Point{{ID: 10_000, X: []geom.Coord{1, 2}}}
	if _, err := st.InsertBatch(fresh); err != nil {
		if !strings.Contains(err.Error(), "compaction failed") {
			t.Fatalf("mutation after query abort: %v", err)
		}
	}
}

// TestCheckpointAfterWorkerDeathIsAnError: a checkpoint of a durable
// store whose resident level lost a worker is an error naming the rank,
// not a process panic, and the directory still recovers every point.
func TestCheckpointAfterWorkerDeathIsAnError(t *testing.T) {
	workers := make([]*transport.Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{Dims: 2, Provider: cl, MemtableCap: 64, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := workload.Points(workload.PointSpec{N: 200, Dims: 2, Dist: workload.Uniform, Seed: 4})
	if _, err := st.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	st.Compact()

	workers[1].Close()

	err = st.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint over a dead resident worker succeeded")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("checkpoint error does not name rank 1: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(dir, store.Config{Dims: 2, P: 2, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	whole := geom.NewBox([]geom.Coord{0, 0}, []geom.Coord{1 << 20, 1 << 20})
	counts, err := re.CountBatch([]geom.Box{whole})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != int64(len(pts)) {
		t.Fatalf("recovered %d points, want %d", counts[0], len(pts))
	}
}

// TestRetiredLevelSessionsClose: compaction-retired level trees must
// close their TCP sessions (and worker-resident state) eagerly once no
// pinned version references them — not leak until Cluster.Close.
func TestRetiredLevelSessionsClose(t *testing.T) {
	w, err := transport.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl, err := transport.DialCluster([]string{w.Addr()}, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := store.Open("", store.Config{Dims: 2, Provider: cl, MemtableCap: 16, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pts := workload.Points(workload.PointSpec{N: 96, Dims: 2, Dist: workload.Uniform, Seed: 8})
	for lo := 0; lo < len(pts); lo += 16 {
		if _, err := st.InsertBatch(pts[lo : lo+16]); err != nil {
			t.Fatal(err)
		}
	}
	// Delete enough to trip a fold: every level collapses into one.
	if _, err := st.DeleteBatch(pts[:40]); err != nil {
		t.Fatal(err)
	}
	st.Compact()

	levels := st.Stats().Levels
	if levels == 0 {
		t.Fatal("expected at least one level after compaction")
	}
	// Eventually exactly one session per live level survives: every
	// retired level's machine was closed by the reference counting, with
	// the cluster still open.
	deadline := time.Now().Add(5 * time.Second)
	for w.Sessions() != levels {
		if time.Now().After(deadline) {
			t.Fatalf("worker holds %d sessions for %d live levels (retired levels leaked)", w.Sessions(), levels)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
