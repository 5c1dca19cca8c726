package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/workload"
)

// qosBurn is a test-only resident program whose single step spins the
// CPU for the requested duration and replies with the rank's running
// call count. It stands in for ingest staging at a work rate large
// enough to exercise the share governor deterministically — real chunk
// staging is so cheap that test-sized loads fit inside the governor's
// free burst and never throttle.
const qosBurnProgram = "core_test/qosburn"

func init() {
	exec.Register(&exec.Program{
		Name:    qosBurnProgram,
		Version: 1,
		New:     func(rank, p int) any { return new(int) },
		Steps: map[string]exec.Step{
			"burn": exec.Pure(func(st *int, c *exec.Ctx, spinNs int64) (int, error) {
				for end := time.Now().Add(time.Duration(spinNs)); time.Now().Before(end); {
				}
				*st++
				return *st, nil
			}),
		},
	})
}

// TestIngestShareCapsServeLatency is the QoS contract on loopback: a
// MaxShare-governed feed may not push concurrent serve-query p50 beyond
// a configured bound of the idle p50, the governor must actually
// throttle (nonzero wait counters), and the governed phase's wall-time
// must stretch to at least busy/share. The bound is deliberately loose
// (10x + a 5ms floor) — this test pins the mechanism, not a benchmark
// number.
func TestIngestShareCapsServeLatency(t *testing.T) {
	const (
		p         = 4
		nServe    = 1 << 12
		share     = 0.1
		spin      = 500 * time.Microsecond
		calls     = 150 // 75ms of busy work per rank, ~4x the burst
		boundMult = 10
		boundMin  = 5 * time.Millisecond
	)
	reg := obs.NewRegistry()

	servePts := workload.Points(workload.PointSpec{N: nServe, Dims: 2, Dist: workload.Uniform, Seed: 5})
	serveM := cgm.New(cgm.Config{P: p})
	serveTree := core.Build(serveM, servePts)
	boxes := workload.Boxes(workload.QuerySpec{M: 16, Dims: 2, N: nServe, Selectivity: 0.05, Seed: 9})

	oneQuery := func() time.Duration {
		start := time.Now()
		serveTree.CountBatch(boxes[:4])
		return time.Since(start)
	}
	p50 := func(samples []time.Duration) time.Duration {
		h := obs.NewRegistry().Histogram("s")
		for _, s := range samples {
			h.Observe(int64(s))
		}
		return time.Duration(h.Quantile(0.5))
	}

	var idle []time.Duration
	for i := 0; i < 50; i++ {
		idle = append(idle, oneQuery())
	}
	idleP50 := p50(idle)

	// One governed feed per rank, fed concurrently — the shape of a
	// rank-parallel capped ingest, minus the ungoverned level construct
	// that would otherwise dominate the sampling window.
	loadM := cgm.New(cgm.Config{P: p, Resident: true, Obs: reg})
	ref := exec.Ref{Program: qosBurnProgram, Version: 1, Step: "burn"}
	args := exec.Marshal(int64(spin))
	var wg sync.WaitGroup
	errs := make([]error, p)
	feedStart := time.Now()
	done := make(chan struct{})
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sf, err := loadM.OpenFeed(rank, ref, cgm.FeedOptions{MaxShare: share})
			if err != nil {
				errs[rank] = err
				return
			}
			for i := 0; i < calls; i++ {
				if err := sf.Send(args, nil); err != nil {
					errs[rank] = err
					return
				}
			}
			last, err := sf.Close()
			if err != nil {
				errs[rank] = err
				return
			}
			if n, err := exec.Unmarshal[int](last); err != nil || n != calls {
				t.Errorf("rank %d: final feed reply %d (err=%v), want %d", rank, n, err, calls)
			}
		}(rank)
	}
	go func() { wg.Wait(); close(done) }()

	var during []time.Duration
loop:
	for {
		select {
		case <-done:
			break loop
		default:
			during = append(during, oneQuery())
			// Pace the probe so it samples latency instead of competing
			// for every core with the governed feeds.
			time.Sleep(2 * time.Millisecond)
		}
	}
	feedWall := time.Since(feedStart)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d feed: %v", rank, err)
		}
	}
	if len(during) < 10 {
		t.Fatalf("only %d serve samples completed during the governed feed", len(during))
	}
	duringP50 := p50(during)

	// The latency bound itself.
	bound := idleP50 * boundMult
	if bound < boundMin {
		bound = boundMin
	}
	if duringP50 > bound {
		t.Fatalf("serve p50 during capped feed = %v, idle = %v; exceeds bound %v", duringP50, idleP50, bound)
	}

	// The governor did the capping: it throttled, and each rank's
	// wall-time stretched to at least its busy time over the share
	// (half, to forgive scheduler slop and the free burst).
	waits := reg.Counter("ingest_throttle_waits_total").Value()
	busy := time.Duration(reg.Counter("ingest_busy_ns_total").Value())
	if waits == 0 {
		t.Fatal("governor recorded no throttle waits during a capped feed")
	}
	if minWall := time.Duration(float64(busy) / p / share / 2); feedWall < minWall {
		t.Fatalf("capped feeds finished in %v with %v total busy; share=%v demands >= %v wall",
			feedWall, busy, share, minWall)
	}
	t.Logf("idle p50 %v, during p50 %v (%d samples), feed wall %v, busy %v, throttle waits %d",
		idleP50, duringP50, len(during), feedWall, busy, waits)
}
