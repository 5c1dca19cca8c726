package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/aggregates"
	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	obscluster "repro/internal/obs/cluster"
	"repro/internal/wire"
	"repro/internal/workload"
)

// fuzzSrc turns fuzz input into frame contents: each read takes what it
// needs from the front and reads zeros once the input runs out.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSrc) u64() uint64 {
	var v [8]byte
	n := copy(v[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(v[:])
}

// int spans small values, negatives and the extremes.
func (s *fuzzSrc) int() int {
	switch c := s.byte(); c % 4 {
	case 0:
		return int(c >> 2)
	case 1:
		return -int(c >> 2)
	default:
		return int(s.u64())
	}
}

func (s *fuzzSrc) bytes() []byte {
	n := min(int(s.byte()%24), len(s.b))
	v := append([]byte{}, s.b[:n]...)
	s.b = s.b[n:]
	return v
}

func (s *fuzzSrc) str() string { return string(s.bytes()) }

func (s *fuzzSrc) ref() *stepRef {
	return &stepRef{Prog: s.str(), Ver: s.int(), Step: s.str(), Args: s.bytes()}
}

// frameFrom builds a frame of the kind the input picks, each field of the
// kind's layout row set or left zero as the input says.
func frameFrom(s *fuzzSrc) frame {
	k := kind(1 + s.byte()%byte(kindMax))
	fr := frame{Kind: k}
	for bit := fSession; bit <= fIntervalNs; bit <<= 1 {
		if layout[k]&bit == 0 || s.byte()&1 == 0 {
			continue
		}
		switch bit {
		case fSession:
			fr.Session = s.str()
		case fRank:
			fr.Rank = s.int()
		case fSeq:
			fr.Seq = s.int()
		case fStamp:
			fr.Stamp = s.str()
		case fType:
			fr.Type = s.str()
		case fBlocks:
			fr.blocks = make([][]byte, 1+s.byte()%4)
			for i := range fr.blocks {
				if s.byte()%3 != 0 { // else a nil slot
					fr.blocks[i] = s.bytes()
				}
			}
			if k == kindBeacon {
				fr.blocks = [][]byte{beaconBlock(s)}
			}
		case fTrace:
			fr.Trace = s.u64()
		case fCall:
			fr.Call = s.ref()
		case fCollect:
			fr.Collect = s.ref()
		case fReply:
			fr.Reply = s.bytes()
		case fSent:
			fr.Sent = s.int()
		case fRecv:
			fr.Recv = s.int()
		case fSpans:
			fr.Spans = make([]obs.Span, s.byte()%4)
			for i := range fr.Spans {
				fr.Spans[i] = obs.Span{Trace: s.u64(), Stamp: int64(s.int()), Name: s.str(), Rank: s.int(),
					Start: int64(s.int()), Dur: int64(s.int()), Bytes: int64(s.int())}
			}
		case fErr:
			fr.Err = s.str()
		case fPeers:
			fr.Peers = make([]string, s.byte()%5)
			for i := range fr.Peers {
				fr.Peers[i] = s.str()
			}
		case fShare:
			fr.Share = math.Float64frombits(s.u64())
		case fIntervalNs:
			fr.IntervalNs = int64(s.int())
		}
	}
	if k == kindDeposit { // one of the two shapes checkDeposit admits
		if fr.Call != nil || fr.Collect != nil {
			fr.blocks = nil
			if fr.Call == nil {
				fr.Call = s.ref()
			}
			if fr.Collect == nil {
				fr.Collect = s.ref()
			}
		} else if len(fr.blocks) == 0 {
			fr.blocks = make([][]byte, 1)
		}
	}
	return fr
}

// beaconBlock is a health sample as the beacon stream carries it.
func beaconBlock(s *fuzzSrc) []byte {
	b := testBeacon(s)
	return appendBeacon(nil, &b)
}

func testBeacon(s *fuzzSrc) obscluster.Beacon {
	var h obs.HistSnapshot
	for i := range h.Buckets {
		h.Buckets[i] = int64(s.int())
	}
	h.Count, h.Sum = int64(s.int()), int64(s.int())
	return obscluster.Beacon{Seq: s.u64(), Addr: s.str(), Sessions: s.int(), Goroutines: s.int(),
		HeapBytes: s.u64(), UptimeNs: int64(s.int()), LastStamp: s.str(),
		Dump: obs.RegistryDump{
			Counters: map[string]int64{s.str(): int64(s.int())},
			Gauges:   map[string]float64{s.str(): float64(s.int()), s.str(): math.Inf(-1)},
			Hists:    map[string]obs.HistSnapshot{s.str(): h},
		}}
}

func sameRef(a, b *stepRef) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prog == b.Prog && a.Ver == b.Ver && a.Step == b.Step && bytes.Equal(a.Args, b.Args)
}

// sameFrame compares two frames field by field. An empty byte field or
// list equals an absent one (neither goes on the wire); a nil block slot
// differs from an empty block.
func sameFrame(a, b *frame) bool {
	if len(a.blocks) != len(b.blocks) {
		return false
	}
	for i := range a.blocks {
		if (a.blocks[i] == nil) != (b.blocks[i] == nil) || !bytes.Equal(a.blocks[i], b.blocks[i]) {
			return false
		}
	}
	return a.Kind == b.Kind && a.Session == b.Session && a.Rank == b.Rank && a.Seq == b.Seq &&
		a.Stamp == b.Stamp && a.Type == b.Type && slices.Equal(a.Peers, b.Peers) && a.Err == b.Err &&
		sameRef(a.Call, b.Call) && sameRef(a.Collect, b.Collect) &&
		bytes.Equal(a.Reply, b.Reply) && a.Sent == b.Sent && a.Recv == b.Recv &&
		a.Trace == b.Trace && slices.Equal(a.Spans, b.Spans) &&
		(a.Share == b.Share || math.Float64bits(a.Share) == math.Float64bits(b.Share)) &&
		a.IntervalNs == b.IntervalNs
}

// FuzzFrameRoundTrip holds the frame codec to two contracts. A frame
// built from the input — any kind, any subset of its layout row (a
// deposit in one of its two shapes), nil block slots, a real beacon
// block — decodes to itself, and every strict prefix of its body and the
// body plus a trailing byte fail to decode.
// The raw input, decoded as a hostile body, returns an error or a frame
// that re-encodes to itself; it never panics, and its counts are bounded
// by the bytes left.
func FuzzFrameRoundTrip(f *testing.F) {
	for k := byte(0); k < byte(kindMax); k++ {
		f.Add(append([]byte{k}, bytes.Repeat([]byte{0xff}, 256)...)) // every field set, nil block slots
		f.Add(append([]byte{k}, bytes.Repeat([]byte{0x7f}, 256)...)) // every field set, 7-byte blocks
		f.Add([]byte{k})                                             // none set
		mixed, x := []byte{k}, uint32(k)+1                           // some set, nil block slots among them
		for range 256 {
			x = x*1103515245 + 12345
			mixed = append(mixed, byte(x>>16))
		}
		f.Add(mixed)
	}
	for _, hostile := range hostileBodies() {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frameFrom(&fuzzSrc{b: data})
		body := appendFrame(nil, &fr)
		var got frame
		if err := decodeFrame(body, &got, &strtab{}); err != nil {
			t.Fatalf("%s frame did not decode: %v\nbody %x", kindNames[fr.Kind], err, body)
		}
		if !sameFrame(&fr, &got) {
			t.Fatalf("%s frame changed in a round trip:\n sent %+v\n got  %+v", kindNames[fr.Kind], fr, got)
		}
		if fr.Kind == kindBeacon && len(got.blocks) == 1 {
			b, err := decodeBeacon(got.blocks[0])
			if want, _ := decodeBeacon(fr.blocks[0]); err != nil || !reflect.DeepEqual(b, want) {
				t.Fatalf("beacon block: %v, got %+v want %+v", err, b, want)
			}
		}
		for i := range body {
			if decodeFrame(body[:i], &frame{}, &strtab{}) == nil {
				t.Fatalf("%s frame: the %d-byte prefix of a %d-byte body decoded", kindNames[fr.Kind], i, len(body))
			}
		}
		if decodeFrame(append(body, 0), &frame{}, &strtab{}) == nil {
			t.Fatalf("%s frame decoded with a trailing byte", kindNames[fr.Kind])
		}

		decodeBeacon(data) // must not panic

		var h frame
		err := decodeFrame(data, &h, &strtab{})
		if len(h.blocks) > len(data) || len(h.Peers) > len(data) || len(h.Spans)*minSpanBytes > len(data) {
			t.Fatalf("a %d-byte body sized %d blocks, %d peers and %d spans", len(data), len(h.blocks), len(h.Peers), len(h.Spans))
		}
		if err != nil {
			return
		}
		var again frame
		if err := decodeFrame(appendFrame(nil, &h), &again, &strtab{}); err != nil || !sameFrame(&h, &again) {
			t.Fatalf("accepted hostile body does not re-encode to itself: %v\n first %+v\n again %+v", err, h, again)
		}
	})
}

// mixedDeposits are well-formed deposit bodies of neither admitted shape:
// a resident deposit naming one step only, resident steps beside fabric
// blocks, and a deposit with neither.
func mixedDeposits() [][]byte {
	ref := &stepRef{Prog: "core/forest", Ver: 1, Step: "s"}
	deposit := func(fr frame) []byte {
		fr.Kind, fr.Session = kindDeposit, "s"
		return appendFrame(nil, &fr)
	}
	return [][]byte{
		deposit(frame{Call: ref}),
		deposit(frame{Collect: ref}),
		deposit(frame{Call: ref, Collect: ref, blocks: [][]byte{nil, {1}}}),
		deposit(frame{Collect: ref, blocks: [][]byte{{1}}}),
		deposit(frame{}),
	}
}

// hostileBodies are bodies a decoder must refuse: oversized counts and
// lengths (block lengths near MaxInt among them), truncated fields,
// unknown kinds, wrong versions, trailing bytes, and the mixed deposit
// shapes. A run of zeros is the leading fields of a row left empty.
func hostileBodies() [][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	zeros := func(n int) []byte { return make([]byte, n) }
	block := func(n uint64) []byte { return cat([]byte{byte(kindBlock)}, zeros(5), uv(1), uv(n)) }
	return append([][]byte{
		{},
		{0},
		{byte(kindMax) + 1},
		{0xff},
		{byte(kindOpen)},
		{byte(kindOpen), frameVersion + 1, 0, 0, 0},
		cat([]byte{byte(kindDeposit)}, zeros(5), uv(1<<40)),
		block(1 << 62),
		block(math.MaxUint64),
		block(1 << 63),   // length MaxInt: off+n overflows
		block(1<<63 - 5), // likewise, past the first few bytes
		block(2),         // one byte past the end
		cat([]byte{byte(kindColumn)}, zeros(8), uv(1<<33)),
		cat([]byte{byte(kindOpen), frameVersion}, zeros(2), uv(1<<50)),
		cat([]byte{byte(kindStepReply)}, zeros(1), uv(1<<45), []byte("x")),
		{byte(kindHello), frameVersion, 0},
		cat([]byte{byte(kindAbort)}, uv(1), []byte("s"), zeros(1), zeros(1)),
		cat([]byte{byte(kindStep)}, zeros(2), uv(1), uv(3), []byte("p"), uv(0)),
		cat([]byte{byte(kindFeedOpen), frameVersion}, zeros(3), []byte{1, 2, 3}),
	}, mixedDeposits()...)
}

// TestHostileFramesRefused runs the hostile seeds on every test run, not
// only under -fuzz.
func TestHostileFramesRefused(t *testing.T) {
	for _, b := range hostileBodies() {
		if err := decodeFrame(b, &frame{}, &strtab{}); err == nil {
			t.Errorf("hostile body %x decoded", b)
		}
	}
}

// TestHostileFramesOnLiveListener: a worker that reads a body the decoder
// refuses — each hostile body as a connection's first frame, and each
// mixed deposit shape again inside an opened session — ends that
// connection with an error frame or a close, and keeps serving: a
// resident session opened afterwards answers a mixed batch as the
// loopback does.
func TestHostileFramesOnLiveListener(t *testing.T) {
	w, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dial := func() (net.Conn, *fconn) {
		conn, err := net.DialTimeout("tcp", w.Addr(), dialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return conn, newFConn(conn)
	}
	send := func(conn net.Conn, body []byte) {
		if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body)))); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	// ends reads until the worker answers with an error frame or closes.
	ends := func(what string, body []byte, conn net.Conn, fc *fconn) {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			f, err := fc.read()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("%s body %x: the worker neither answered with an error nor closed", what, body)
			}
			if err != nil || f.Kind == kindError {
				return
			}
		}
	}
	for _, body := range hostileBodies() {
		conn, fc := dial()
		send(conn, body)
		ends("first-frame", body, conn, fc)
		conn.Close()
	}
	for i, body := range mixedDeposits() {
		conn, fc := dial()
		send(conn, appendFrame(nil, &frame{Kind: kindOpen, Session: fmt.Sprintf("mixed-%d", i), Peers: []string{w.Addr()}}))
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if ack, err := fc.read(); err != nil || ack.Kind != kindOpenAck {
			t.Fatalf("open before mixed deposit %d: %v", i, err)
		}
		send(conn, body)
		ends("in-session", body, conn, fc)
		conn.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for w.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions outlived their refused deposits", w.Sessions())
		}
		time.Sleep(time.Millisecond)
	}

	cl, err := DialCluster([]string{w.Addr()}, cgm.Config{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pts := workload.Points(workload.PointSpec{N: 600, Dims: 2, Dist: workload.Uniform, Seed: 4})
	boxes := workload.Boxes(workload.QuerySpec{M: 30, Dims: 2, N: 600, Selectivity: 0.05, Seed: 4})
	ops := make([]core.MixedOp, len(boxes))
	for i := range ops {
		ops[i] = core.MixedOp(i % 3)
	}
	var answers [2][]core.MixedResult[float64]
	for i, pv := range []cgm.Provider{cgm.NewLocalProvider(cgm.Config{P: 1}), cl} {
		tree, err := core.BuildOn(pv, pts, core.BackendLayered)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = core.MixedBatch(tree, core.PrepareAssociativeNamed[float64](tree, aggregates.WeightSum), ops, boxes)
	}
	for q := range boxes {
		a, b := answers[0][q], answers[1][q]
		if a.Count != b.Count || math.Abs(a.Agg-b.Agg) > 1e-9 || !slices.Equal(brute.IDs(a.Pts), brute.IDs(b.Pts)) {
			t.Fatalf("query %d (%v): loopback %+v, the worker %+v", q, ops[q], a, b)
		}
	}
}

// TestFrameVersionMismatch: a first frame of another layout version gets
// a diagnostic error frame back, not a bare hang-up.
func TestFrameVersionMismatch(t *testing.T) {
	w, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := net.DialTimeout("tcp", w.Addr(), dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFConn(conn)
	defer fc.close()
	body := appendFrame(nil, &frame{Kind: kindOpen, Session: "s", Peers: []string{w.Addr()}})
	body[1] = frameVersion + 1
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body)))); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := fc.read()
	if err != nil {
		t.Fatalf("no diagnostic for a wrong version: %v", err)
	}
	want := fmt.Sprintf("frame version mismatch: the peer sent version %d, this binary speaks version %d", frameVersion+1, frameVersion)
	if reply.Kind != kindError || !strings.Contains(reply.Err, want) {
		t.Fatalf("got %s frame %q, want an error containing %q", kindNames[reply.Kind], reply.Err, want)
	}
	if w.Sessions() != 0 {
		t.Fatalf("a refused open left %d sessions", w.Sessions())
	}
}

// TestBeaconBlockRoundTrip: a worker's health sample decodes to itself;
// a truncated block, a trailing byte and a histogram of another bucket
// count fail. The field counts pin the sample's shape, so a field added
// to it fails here until appendBeacon and decodeBeacon carry it.
func TestBeaconBlockRoundTrip(t *testing.T) {
	for typ, n := range map[reflect.Type]int{
		reflect.TypeFor[obscluster.Beacon](): 8, reflect.TypeFor[obs.RegistryDump](): 3, reflect.TypeFor[obs.HistSnapshot](): 3,
	} {
		if typ.NumField() != n {
			t.Fatalf("%v has %d fields, the beacon block carries %d: update appendBeacon and decodeBeacon", typ, typ.NumField(), n)
		}
	}
	w, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.reg.Histogram("probe_ns").Observe(1234)
	b := w.beacon(7)
	blk := appendBeacon(nil, &b)
	got, err := decodeBeacon(blk)
	if err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("beacon changed in a round trip: %v\n sent %+v\n got  %+v", err, b, got)
	}
	for i := range blk {
		if _, err := decodeBeacon(blk[:i]); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte beacon block decoded", i, len(blk))
		}
	}
	if _, err := decodeBeacon(append(blk, 0)); err == nil {
		t.Fatal("a beacon block decoded with a trailing byte")
	}
	var h obs.HistSnapshot
	odd := wire.AppendString(append(make([]byte, 7), 0, 0, 1), "h")
	odd = wire.AppendUvarint(append(odd, 0, 0), uint64(len(h.Buckets)+1))
	odd = append(odd, make([]byte, len(h.Buckets)+1)...)
	if _, err := decodeBeacon(odd); err == nil || !strings.Contains(err.Error(), "bucket count") {
		t.Fatalf("a histogram of %d buckets: %v", len(h.Buckets)+1, err)
	}
}

// TestBeaconStreamLeavesCodecCountersAlone: watching a worker moves no
// wire codec counter, so the zero-gob checks on a watched process still
// read the exchange path alone.
func TestBeaconStreamLeavesCodecCountersAlone(t *testing.T) {
	w, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const interval = 10 * time.Millisecond
	addrs := []string{w.Addr()}
	mon := obscluster.NewMonitor(obscluster.MonitorConfig{Addrs: addrs, Interval: interval})
	defer mon.Close()
	before := wire.Stats()
	watcher := WatchHealth(addrs, interval, mon)
	deadline := time.Now().Add(10 * time.Second)
	for mon.Snapshot()[0].Beacon.Seq < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no third beacon")
		}
		time.Sleep(time.Millisecond)
	}
	watcher.Close()
	if after := wire.Stats(); after != before {
		t.Fatalf("beacons moved the codec counters: %+v → %+v", before, after)
	}
	if b := mon.Snapshot()[0].Beacon; b.Addr != w.Addr() || b.Dump.Gauges["worker_sessions"] != 0 {
		t.Fatalf("beacon %+v", b)
	}
}

// TestClosedSessionPinsNoDeposit: once a session closes, nothing on the
// worker keeps its last deposit's frame body — the beacon's last stamp
// is kept as a (label, seq) pair, not as the deposit. The exchange moves
// one 16 MiB block from rank 0 to rank 1, so rank 0's worker receives a
// 16 MiB deposit.
func TestClosedSessionPinsNoDeposit(t *testing.T) {
	const big = 16 << 20
	workers := make([]*Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		w, err := ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i], addrs[i] = w, w.Addr()
	}
	cl, err := DialCluster(addrs, cgm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	func() {
		mach, err := cl.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		mach.Run(func(pr *cgm.Proc) {
			out := make([][]byte, 2)
			if pr.Rank() == 0 {
				out[1] = make([]byte, big)
			}
			cgm.Exchange(pr, "big", out)
		})
		mach.Close()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for workers[0].Sessions()+workers[1].Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sessions did not close")
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := workers[0].beacon(1).LastStamp, cgm.StampOf("big", 0); got != want {
		t.Errorf("beacon's last stamp %q, want %q", got, want)
	}
	if grew := live() - before; grew > big/2 {
		t.Fatalf("live heap grew %d B over a closed session's %d B exchange: its deposit is still pinned", grew, big)
	}
}
