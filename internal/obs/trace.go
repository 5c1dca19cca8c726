package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of a traced query's execution. Trace groups
// spans into a query; Stamp orders them along the machine's superstep
// sequence (coordinator and workers share stamp numbering because both
// sides derive it from the exchange protocol); Rank is the worker rank
// the span ran on, or CoordRank for coordinator-side spans.
type Span struct {
	Trace uint64
	Stamp int64
	Name  string
	Rank  int
	// Start is nanoseconds since the process's tracer epoch — only span
	// durations and intra-process ordering are meaningful across
	// processes, not absolute offsets.
	Start int64
	Dur   int64
	// Bytes attributes wire traffic to the span (coordinator↔worker frame
	// bytes for an exchange, both directions). Zero means "no traffic" —
	// pure-compute spans leave it unset and the tree omits the column.
	Bytes int64
}

// CoordRank marks a span recorded on the coordinator rather than a
// worker rank.
const CoordRank = -1

// maxTraces bounds the tracer's memory: completed traces are kept in a
// ring and the oldest is dropped when a new trace ID arrives past the
// cap. A trace that slow-query logging or Engine.Trace wants must be
// read promptly — the tracer is a flight recorder, not a database.
const maxTraces = 256

// Tracer collects spans by trace ID. It is safe for concurrent use:
// worker goroutines add spans while the coordinator reads trees. All
// methods tolerate a nil receiver (recording becomes a no-op and fn in
// Record still runs), so instrumentation sites never branch on whether
// tracing is configured.
type Tracer struct {
	mu     sync.Mutex
	spans  map[uint64][]Span
	ring   []uint64 // insertion order of live trace IDs
	nextID atomic.Uint64
	epoch  time.Time
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer {
	t := &Tracer{spans: make(map[uint64][]Span), epoch: time.Now()}
	t.nextID.Store(1)
	return t
}

// NewID mints a fresh non-zero trace ID. Zero means "untraced"
// everywhere a trace ID travels (frames, deposits), so IDs start at 1;
// a nil tracer mints 0.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Now reports nanoseconds since the tracer epoch, the Start clock for
// spans recorded through this tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Add records one span; spans with Trace == 0 are dropped.
func (t *Tracer) Add(s Span) {
	if t == nil || s.Trace == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, live := t.spans[s.Trace]; !live {
		if len(t.ring) >= maxTraces {
			delete(t.spans, t.ring[0])
			t.ring = t.ring[1:]
		}
		t.ring = append(t.ring, s.Trace)
	}
	t.spans[s.Trace] = append(t.spans[s.Trace], s)
}

// AddAll records a batch of spans (a worker reply's span list).
func (t *Tracer) AddAll(spans []Span) {
	if t == nil {
		return
	}
	for _, s := range spans {
		t.Add(s)
	}
}

// Record times fn as one span under the given identity; with a nil
// tracer or zero trace ID fn runs untimed.
func (t *Tracer) Record(trace uint64, stamp int64, rank int, name string, fn func()) {
	if t == nil || trace == 0 {
		fn()
		return
	}
	start := t.Now()
	fn()
	t.Add(Span{Trace: trace, Stamp: stamp, Name: name, Rank: rank, Start: start, Dur: t.Now() - start})
}

// Spans returns a copy of the spans recorded under id, or nil if the
// trace is unknown (never started, or already evicted from the ring).
func (t *Tracer) Spans(id uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	if s == nil {
		return nil
	}
	return append([]Span(nil), s...)
}

// Tree renders the trace as an indented span tree grouped by stamp:
// coordinator spans lead each stamp group, worker spans nest under it
// ordered by rank. The rendering is the `trace` command's and the
// slow-query log's shared output format.
func (t *Tracer) Tree(id uint64) string {
	spans := t.Spans(id)
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans recorded", id)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Stamp != spans[j].Stamp {
			return spans[i].Stamp < spans[j].Stamp
		}
		// Coordinator span heads its stamp group.
		ci, cj := spans[i].Rank == CoordRank, spans[j].Rank == CoordRank
		if ci != cj {
			return ci
		}
		if spans[i].Rank != spans[j].Rank {
			return spans[i].Rank < spans[j].Rank
		}
		return spans[i].Start < spans[j].Start
	})
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (%d spans)\n", id, len(spans))
	const noStamp = int64(-1) << 62
	lastStamp := noStamp
	for _, s := range spans {
		if s.Stamp != lastStamp {
			if s.Stamp < 0 {
				// Stamp -1 marks spans outside the superstep sequence (the
				// engine's whole-batch dispatch span).
				b.WriteString("  batch\n")
			} else {
				fmt.Fprintf(&b, "  stamp %d\n", s.Stamp)
			}
			lastStamp = s.Stamp
		}
		cost := ""
		if s.Bytes > 0 {
			cost = "  " + FmtBytes(s.Bytes)
		}
		if s.Rank == CoordRank {
			fmt.Fprintf(&b, "    coord %-24s %s%s\n", s.Name, fmtDur(s.Dur), cost)
		} else {
			fmt.Fprintf(&b, "      r%-2d %-22s %s%s\n", s.Rank, s.Name, fmtDur(s.Dur), cost)
		}
	}
	return b.String()
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// FmtBytes renders a byte count for humans (the trace tree's cost column
// and rangetop's heap column).
func FmtBytes(n int64) string {
	switch {
	case n >= 10*1024*1024:
		return fmt.Sprintf("%dMB", n/(1024*1024))
	case n >= 10*1024:
		return fmt.Sprintf("%.0fKB", float64(n)/1024)
	case n >= 1024:
		return fmt.Sprintf("%.1fKB", float64(n)/1024)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
