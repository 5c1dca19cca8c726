package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Layer names are the repository's module names. A span belongs to the
// layer whose public function it wraps (or, for folded obs spans, the
// layer that recorded it).
const (
	layerBench     = "bench"
	layerCore      = "core"
	layerCgm       = "cgm"
	layerTransport = "transport"
	layerExec      = "exec"
	layerEngine    = "engine"
	layerStore     = "store"
	unaccounted    = "unaccounted"
)

var layerOrder = []string{layerStore, layerEngine, layerCore, layerCgm, layerTransport, layerExec, layerBench, unaccounted}

// span is one timed call into a layer, recorded by the benchmark from
// outside that layer. Parent is an index into the recorder (-1 for the
// root span of an op); Start and End are nanoseconds since the recorder
// epoch.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Traced marks a root whose op also carried an obs trace ID, so the
	// layers' own spans hang under it; the layer table counts only those.
	Traced bool `json:"traced,omitempty"`
}

// recorder keeps the traced pass's spans in memory; they are written out
// once, when the pass ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64               { return int64(time.Since(r.epoch)) }
func (r *recorder) at(t time.Time) int64     { return int64(t.Sub(r.epoch)) }
func (r *recorder) offsetOf(now int64) int64 { return r.now() - now }

// add records a finished span and returns its index.
func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// begin opens a span now; end closes it.
func (r *recorder) begin(name, layer string, parent int32, op int64) int32 {
	return r.add(span{Name: name, Layer: layer, Op: op, Parent: parent, Start: r.now()})
}

func (r *recorder) end(id int32) {
	now := r.now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) get(id int32) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id]
}

// layerOfObs names the layer of a rank-side obs span: resident steps
// belong to exec, the worker's gather and route to transport.
func layerOfObs(s obs.Span) string {
	if strings.HasPrefix(s.Name, "emit") || strings.HasPrefix(s.Name, "collect") {
		return layerExec
	}
	return layerTransport
}

// fold hangs the obs.Tracer spans of one traced op under parent.
// Coordinator-clock spans (superstep "x:" spans, per-rank "wire" spans,
// loopback resident steps) are placed by their own start, shifted by
// offset from the tracer clock to the recorder clock. Worker-clock spans
// (steps, gather and route recorded inside a TCP worker) carry an epoch
// the coordinator cannot see, so each rank's group keeps its internal
// layout and is centred inside the wire span of its superstep and rank.
func (r *recorder) fold(parent int32, op int64, spans []obs.Span, offset int64, workerClock bool) {
	type key struct {
		stamp int64
		rank  int
	}
	bound := r.get(parent)
	clip := func(s span) span {
		s.Start = min(max(s.Start, bound.Start), bound.End)
		s.End = min(max(s.End, s.Start), bound.End)
		return s
	}
	steps := make(map[int64]int32)
	wires := make(map[key]int32)
	for _, s := range spans {
		if s.Rank == obs.CoordRank && strings.HasPrefix(s.Name, "x:") {
			steps[s.Stamp] = r.add(clip(span{Name: s.Name, Layer: layerCgm, Op: op, Parent: parent,
				Start: s.Start + offset, End: s.Start + s.Dur + offset}))
		}
	}
	stepOf := func(stamp int64) int32 {
		if id, ok := steps[stamp]; ok {
			return id
		}
		return parent
	}
	for _, s := range spans {
		if s.Name == "wire" {
			wires[key{s.Stamp, s.Rank}] = r.add(clip(span{Name: s.Name, Layer: layerTransport, Op: op,
				Parent: stepOf(s.Stamp), Start: s.Start + offset, End: s.Start + s.Dur + offset}))
		}
	}
	groups := make(map[key][]obs.Span)
	for _, s := range spans {
		if s.Rank == obs.CoordRank || s.Name == "wire" {
			continue
		}
		groups[key{s.Stamp, s.Rank}] = append(groups[key{s.Stamp, s.Rank}], s)
	}
	for k, g := range groups {
		host, shift := stepOf(k.stamp), offset
		if w, ok := wires[k]; ok {
			host = w
		}
		if workerClock {
			lo, hi := g[0].Start, g[0].Start+g[0].Dur
			for _, s := range g {
				lo, hi = min(lo, s.Start), max(hi, s.Start+s.Dur)
			}
			h := r.get(host)
			shift = h.Start + max(0, (h.End-h.Start-(hi-lo))/2) - lo
		}
		for _, s := range g {
			r.add(clip(span{Name: s.Name, Layer: layerOfObs(s), Op: op, Parent: host,
				Start: s.Start + shift, End: s.Start + s.Dur + shift}))
		}
	}
}

// layerTable attributes every instant of every traced root span to one layer:
// the deepest span open at that instant (several at the same depth — the
// p ranks of one superstep — split it evenly). Instants of a root no
// child covers are the unaccounted row. The rows therefore sum to the
// root wall time exactly; how much lands in unaccounted says how much of
// an op the benchmark could not see from outside.
func (r *recorder) layerTable() (self map[string]int64, rootWall int64, roots int) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self = make(map[string]int64)
	type open struct {
		depth int
		layer string
		s, e  int64
	}
	var flat []open
	var walk func(id int32, depth int)
	walk = func(id int32, depth int) {
		s := spans[id]
		layer := s.Layer
		if depth == 0 {
			layer = unaccounted
		}
		flat = append(flat, open{depth, layer, s.Start, s.End})
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for i, s := range spans {
		if s.Parent != -1 || !s.Traced || s.End <= s.Start {
			continue
		}
		roots++
		rootWall += s.End - s.Start
		flat = flat[:0]
		walk(int32(i), 0)
		cuts := make([]int64, 0, 2*len(flat))
		for _, o := range flat {
			cuts = append(cuts, o.s, o.e)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			if hi <= lo {
				continue
			}
			deepest, n := -1, 0
			for _, o := range flat {
				if o.s <= lo && hi <= o.e {
					if o.depth > deepest {
						deepest, n = o.depth, 0
					}
					if o.depth == deepest {
						n++
					}
				}
			}
			for _, o := range flat {
				if o.s <= lo && hi <= o.e && o.depth == deepest {
					self[o.layer] += (hi - lo) / int64(n)
				}
			}
		}
	}
	return self, rootWall, roots
}

// renderLayerTable prints the self-time rows of one workload.
func renderLayerTable(name string, self map[string]int64, rootWall int64, roots int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layer self time, %s: %d ops, root wall %.1f ms\n", name, roots, float64(rootWall)/1e6)
	var sum int64
	for _, l := range layerOrder {
		ns, ok := self[l]
		if !ok {
			continue
		}
		sum += ns
		fmt.Fprintf(&b, "  %-12s %10.2f ms  %5.1f%%  %9.1f us/op\n", l, float64(ns)/1e6,
			100*float64(ns)/float64(max(rootWall, 1)), float64(ns)/1e3/float64(max(roots, 1)))
	}
	fmt.Fprintf(&b, "  %-12s %10.2f ms  %5.1f%%\n", "sum", float64(sum)/1e6, 100*float64(sum)/float64(max(rootWall, 1)))
	return b.String()
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
