package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("same name must return the same counter handle")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations of 1000 and 1 of 1<<20: p50 must sit in 1000's
	// bucket (512,1024] and p99.9-ish tail near the outlier.
	for range 100 {
		h.Observe(1000)
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d, want 101", s.Count)
	}
	if s.Sum != 100*1000+1<<20 {
		t.Fatalf("sum = %d", s.Sum)
	}
	p50 := s.Quantile(0.50)
	if p50 < 512 || p50 > 1024 {
		t.Fatalf("p50 = %g, want within (512,1024]", p50)
	}
	hi := s.Quantile(1.0)
	if hi < 1<<19 || hi > 1<<21 {
		t.Fatalf("max quantile = %g, want around 2^20", hi)
	}
	h.Observe(-5) // clamps to zero, lands in bucket 0
	if got := h.Snapshot().Buckets[0]; got != 1 {
		t.Fatalf("bucket0 = %d, want 1", got)
	}
}

// TestHistogramSnapshotConsistent hammers Observe from many goroutines
// while snapshotting: every snapshot must satisfy Count == Σ buckets and
// Count must be monotone across successive snapshots.
func TestHistogramSnapshotConsistent(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50_000 {
				h.Observe(int64(i%1000) * int64(w+1))
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	var last int64
	check := func() {
		s := h.Snapshot()
		var sum int64
		for _, b := range s.Buckets {
			sum += b
		}
		if sum != s.Count {
			t.Errorf("torn snapshot: Count %d != Σbuckets %d", s.Count, sum)
		}
		if s.Count < last {
			t.Errorf("count went backwards: %d -> %d", last, s.Count)
		}
		last = s.Count
	}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			check()
			runtime.Gosched()
		}
	}
	check()
	if last != 4*50_000 {
		t.Fatalf("final count = %d, want %d", last, 4*50_000)
	}
}

func TestWritePromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`wire_frames_total{kind="block"}`).Add(3)
	r.Counter(`wire_frames_total{kind="open"}`).Add(1)
	r.Gauge("store_levels").Set(2)
	r.Histogram(`lat_ns{mode="count"}`).Observe(900)
	r.Func("live_ranks", func() float64 { return 4 })
	r.Collect(func(emit Emit) {
		emit(`dyn_bytes{kind="column"}`, 17)
	})
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE wire_frames_total counter",
		`wire_frames_total{kind="block"} 3`,
		`wire_frames_total{kind="open"} 1`,
		"# TYPE store_levels gauge",
		"store_levels 2",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{mode="count",le="1024"} 1`,
		`lat_ns_bucket{mode="count",le="+Inf"} 1`,
		`lat_ns_sum{mode="count"} 900`,
		`lat_ns_count{mode="count"} 1`,
		"live_ranks 4",
		`dyn_bytes{kind="column"} 17`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// One TYPE line per base name even with two labeled children.
	if n := strings.Count(out, "# TYPE wire_frames_total"); n != 1 {
		t.Errorf("want 1 TYPE line for wire_frames_total, got %d", n)
	}
}

func TestTracerSpansAndTree(t *testing.T) {
	tr := NewTracer()
	id := tr.NewID()
	if id == 0 {
		t.Fatal("trace IDs must be non-zero")
	}
	tr.Add(Span{Trace: id, Stamp: 1, Name: "dispatch", Rank: CoordRank, Dur: 1500})
	tr.Add(Span{Trace: id, Stamp: 1, Name: "step", Rank: 1, Dur: 700})
	tr.Add(Span{Trace: id, Stamp: 1, Name: "step", Rank: 0, Dur: 800})
	tr.Add(Span{Trace: id, Stamp: 2, Name: "gather", Rank: 0, Dur: 300})
	tr.Add(Span{Trace: 0, Stamp: 9, Name: "dropped", Rank: 0}) // untraced: ignored
	if got := len(tr.Spans(id)); got != 4 {
		t.Fatalf("spans = %d, want 4", got)
	}
	tree := tr.Tree(id)
	// Coordinator heads the stamp group; ranks ordered beneath it.
	iCoord := strings.Index(tree, "coord dispatch")
	iR0 := strings.Index(tree, "r0  step")
	iR1 := strings.Index(tree, "r1  step")
	iS2 := strings.Index(tree, "stamp 2")
	if iCoord < 0 || iR0 < 0 || iR1 < 0 || iS2 < 0 {
		t.Fatalf("tree missing expected lines:\n%s", tree)
	}
	if !(iCoord < iR0 && iR0 < iR1 && iR1 < iS2) {
		t.Fatalf("tree ordering wrong:\n%s", tree)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.NewID() != 0 {
		t.Fatal("nil tracer must mint 0")
	}
	tr.Add(Span{Trace: 5})
	tr.AddAll([]Span{{Trace: 5}})
	ran := false
	tr.Record(7, 0, 0, "x", func() { ran = true })
	if !ran {
		t.Fatal("Record must run fn on nil tracer")
	}
	if tr.Spans(5) != nil {
		t.Fatal("nil tracer must report nothing")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer()
	first := tr.NewID()
	tr.Add(Span{Trace: first, Name: "old"})
	for range maxTraces {
		tr.Add(Span{Trace: tr.NewID(), Name: "new"})
	}
	if tr.Spans(first) != nil {
		t.Fatal("oldest trace must be evicted past the ring cap")
	}
}

func TestAdminEndpointsAndClose(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("adm_hits_total").Add(9)
	health := func() any {
		return map[string]any{"sessions": 3, "ok": true}
	}
	before := runtime.NumGoroutine()
	a, err := ServeAdmin("127.0.0.1:0", reg, health)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + a.Addr()

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "adm_hits_total 9") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"sessions": 3`) {
		t.Fatalf("/healthz: code %d body %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code %d body ...%q", code, body[:min(80, len(body))])
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}

	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Goroutine hygiene: the serve goroutine must be gone. Allow the
	// runtime a moment to retire finished goroutines and idle conns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
}

func TestAdminNilHealth(t *testing.T) {
	a, err := ServeAdmin("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nil health: code %d, want 503", resp.StatusCode)
	}
}
