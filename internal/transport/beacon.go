package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	obscluster "repro/internal/obs/cluster"
	"repro/internal/wire"
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
		return fc.write(&frame{Kind: kindBeacon, blocks: [][]byte{appendBeacon(nil, &b)}})
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
	return obscluster.Beacon{
		Seq:        seq,
		Addr:       w.Addr(),
		Sessions:   w.Sessions(),
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		UptimeNs:   w.now(),
		LastStamp:  w.lastStamp(),
		Dump:       w.reg.Dump(),
	}
}

// appendBeacon writes a health sample as the beacon frame's block. It
// goes through no wire codec: the codec counters measure the exchange
// path, and a watched worker would otherwise tick them once per
// interval. Each map is a count and its entries; a histogram is its
// Count, its Sum and its buckets (a count, then the values).
func appendBeacon(b []byte, bc *obscluster.Beacon) []byte {
	b = wire.AppendUvarint(b, bc.Seq)
	b = wire.AppendString(b, bc.Addr)
	b = wire.AppendVarint(b, int64(bc.Sessions))
	b = wire.AppendVarint(b, int64(bc.Goroutines))
	b = wire.AppendUvarint(b, bc.HeapBytes)
	b = wire.AppendVarint(b, bc.UptimeNs)
	b = wire.AppendString(b, bc.LastStamp)
	d := &bc.Dump
	b = wire.AppendUvarint(b, uint64(len(d.Counters)))
	for name, v := range d.Counters {
		b = wire.AppendString(b, name)
		b = wire.AppendVarint(b, v)
	}
	b = wire.AppendUvarint(b, uint64(len(d.Gauges)))
	for name, v := range d.Gauges {
		b = wire.AppendString(b, name)
		b = wire.AppendF64(b, v)
	}
	b = wire.AppendUvarint(b, uint64(len(d.Hists)))
	for name, h := range d.Hists {
		b = wire.AppendString(b, name)
		b = wire.AppendVarint(b, h.Count)
		b = wire.AppendVarint(b, h.Sum)
		b = wire.AppendUvarint(b, uint64(len(h.Buckets)))
		for _, c := range h.Buckets {
			b = wire.AppendVarint(b, c)
		}
	}
	return b
}

// decodeBeacon reads an appendBeacon block. A histogram with another
// bucket count (a worker from another build) fails it.
func decodeBeacon(blk []byte) (obscluster.Beacon, error) {
	r := wire.NewReader(blk)
	bc := obscluster.Beacon{
		Seq:        r.Uvarint(),
		Addr:       r.Str(),
		Sessions:   int(r.Varint()),
		Goroutines: int(r.Varint()),
		HeapBytes:  r.Uvarint(),
		UptimeNs:   r.Varint(),
		LastStamp:  r.Str(),
	}
	d := &bc.Dump
	n := r.Count(2)
	d.Counters = make(map[string]int64, n)
	for range n {
		name := r.Str()
		d.Counters[name] = r.Varint()
	}
	n = r.Count(9)
	d.Gauges = make(map[string]float64, n)
	for range n {
		name := r.Str()
		d.Gauges[name] = r.F64()
	}
	n = r.Count(4)
	d.Hists = make(map[string]obs.HistSnapshot, n)
	for range n {
		name := r.Str()
		h := obs.HistSnapshot{Count: r.Varint(), Sum: r.Varint()}
		if nb := r.Uvarint(); nb != uint64(len(h.Buckets)) {
			return obscluster.Beacon{}, fmt.Errorf("transport: beacon histogram %q: read a bucket count of %d, this build has %d (truncated, or a worker from another build)",
				name, nb, len(h.Buckets))
		}
		for i := range h.Buckets {
			h.Buckets[i] = r.Varint()
		}
		d.Hists[name] = h
	}
	if err := r.Finish(); err != nil {
		return obscluster.Beacon{}, fmt.Errorf("transport: decoding beacon: %w", err)
	}
	return bc, nil
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
			if f, err = fc.read(); err != nil {
				break
			}
			switch {
			case f.Kind == kindError: // a worker that refused the stream says why
				err = errors.New(f.Err)
			case f.Kind != kindBeacon || len(f.blocks) != 1:
				err = fmt.Errorf("transport: unexpected frame kind %d on beacon stream", f.Kind)
			default:
				var b obscluster.Beacon
				if b, err = decodeBeacon(f.blocks[0]); err == nil {
					hw.mon.Feed(rank, b)
				}
			}
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
