package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cgm"
	obscluster "repro/internal/obs/cluster"
)

// This file is the health plane's wire layer: workers serve beacon
// streams (runBeacon, dispatched from the listener handshake on
// kindBeaconOpen), and the coordinator runs one HealthWatcher that keeps
// a beacon subscription per worker alive — redialing with backoff — and
// feeds every sample or stream break into the liveness Monitor
// (internal/obs/cluster). The beacon stream is deliberately independent
// of sessions: a worker with zero sessions still answers it, and losing
// it never aborts anything.

// minBeaconInterval floors the subscriber-requested period: beacons
// carry a full registry dump plus a runtime.ReadMemStats, so a
// pathological subscriber must not turn the health plane into load.
const minBeaconInterval = 10 * time.Millisecond

// runBeacon pushes one beacon immediately (subscription liveness proof)
// and then one per interval until the conn breaks or the worker closes.
func (w *Worker) runBeacon(fc *fconn, open *frame) {
	defer fc.close()
	interval := time.Duration(open.IntervalNs)
	if interval <= 0 {
		interval = obscluster.DefaultInterval
	}
	if interval < minBeaconInterval {
		interval = minBeaconInterval
	}
	var seq uint64
	send := func() error {
		seq++
		b := w.beacon(seq)
		return fc.write(&frame{Kind: kindBeacon, Beacon: &b})
	}
	if send() != nil {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if send() != nil {
				return
			}
		case <-w.quit:
			return
		}
	}
}

// beacon samples the worker's health: cheap scalars for the liveness
// row, the full registry dump for the aggregator.
func (w *Worker) beacon(seq uint64) obscluster.Beacon {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	stamp := ""
	if dep := w.lastDeposit.Load(); dep != nil {
		stamp = cgm.StampOf(dep.Stamp, dep.Seq)
	}
	return obscluster.Beacon{
		Seq:        seq,
		Addr:       w.Addr(),
		Sessions:   w.Sessions(),
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		UptimeNs:   w.now(),
		LastStamp:  stamp,
		Dump:       w.reg.Dump(),
	}
}

// HealthWatcher is the coordinator side: one goroutine per worker holds
// a beacon subscription open, feeding the monitor. A broken stream
// reports Lost (healthy → suspect immediately) and redials after one
// beacon interval — recovery is automatic, the monitor emits
// worker_recovered when beacons resume.
type HealthWatcher struct {
	mon      *obscluster.Monitor
	interval time.Duration

	mu     sync.Mutex
	conns  map[int]*fconn
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// WatchHealth subscribes to every worker's beacon stream. addrs indexes
// workers by rank and must match the monitor's; interval is the beacon
// period requested from each worker (also the redial backoff).
func WatchHealth(addrs []string, interval time.Duration, mon *obscluster.Monitor) *HealthWatcher {
	if interval <= 0 {
		interval = obscluster.DefaultInterval
	}
	hw := &HealthWatcher{
		mon:      mon,
		interval: interval,
		conns:    make(map[int]*fconn),
		stop:     make(chan struct{}),
	}
	for rank, addr := range addrs {
		hw.wg.Add(1)
		go hw.watch(rank, addr)
	}
	return hw
}

func (hw *HealthWatcher) watch(rank int, addr string) {
	defer hw.wg.Done()
	for {
		if hw.isClosed() {
			return
		}
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			hw.mon.Lost(rank, err)
			if !hw.sleep() {
				return
			}
			continue
		}
		fc := newFConn(conn)
		if !hw.track(rank, fc) {
			fc.close()
			return
		}
		err = fc.write(&frame{Kind: kindBeaconOpen, IntervalNs: int64(hw.interval)})
		for err == nil {
			var f *frame
			f, err = fc.read()
			if err != nil {
				break
			}
			if f.Kind != kindBeacon || f.Beacon == nil {
				err = fmt.Errorf("transport: unexpected frame kind %d on beacon stream", f.Kind)
				break
			}
			hw.mon.Feed(rank, *f.Beacon)
		}
		fc.close()
		hw.untrack(rank)
		if hw.isClosed() {
			return
		}
		hw.mon.Lost(rank, err)
		if !hw.sleep() {
			return
		}
	}
}

// sleep waits one interval before a redial; false means shut down.
func (hw *HealthWatcher) sleep() bool {
	select {
	case <-hw.stop:
		return false
	case <-time.After(hw.interval):
		return true
	}
}

func (hw *HealthWatcher) isClosed() bool {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return hw.closed
}

func (hw *HealthWatcher) track(rank int, fc *fconn) bool {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	if hw.closed {
		return false
	}
	hw.conns[rank] = fc
	return true
}

func (hw *HealthWatcher) untrack(rank int) {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	delete(hw.conns, rank)
}

// Close severs every beacon subscription and waits for the watch
// goroutines to exit. Nil-safe and idempotent.
func (hw *HealthWatcher) Close() {
	if hw == nil {
		return
	}
	hw.mu.Lock()
	if hw.closed {
		hw.mu.Unlock()
		hw.wg.Wait()
		return
	}
	hw.closed = true
	close(hw.stop)
	for _, fc := range hw.conns {
		fc.close()
	}
	hw.mu.Unlock()
	hw.wg.Wait()
}
