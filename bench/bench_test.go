package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestManifestMatchesTable pins the one source of truth: BENCHMARK.json
// is exactly what the Go tables generate, and the tables stay inside the
// driver's limits.
func TestManifestMatchesTable(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Fatal("BENCHMARK.json differs from the metric table; regenerate it with: go run -C bench . -manifest > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(onDisk))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !seen[d.Name] {
			name("per-layer", d.Name)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 || strings.Trim(d.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// TestSmoke runs every workload, untraced and traced with every ladder
// rung, at 1/16 scale with short windows, and checks what the driver
// checks: every named metric once, finite, with its unit, and no failed
// op. The traced pass runs on a second seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runCfg{seed: 1, seconds: 0.5, trace: trace, scale: 16, scratch: t.TempDir()}
			if trace {
				cfg.seed = 2
			}
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if err := r.check(); err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.Name, trace, r.Failed, r.Attempted)
			}
			var last struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(r.lastLine()), &last); err != nil {
				t.Fatal(err)
			}
			defs := r.defs()
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, table has %d", w.Name, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s printed as %+v", w.Name, trace, d.Name, m)
				}
			}
			if trace {
				checkLayerTable(t, r)
			}
		}
	}
}

// checkLayerTable asserts the traced pass's self-time shares, with the
// unaccounted row, sum to the root wall time.
func checkLayerTable(t *testing.T, r *result) {
	t.Helper()
	sum := r.Metrics["bench.unaccounted_share"]
	for _, l := range []string{layerCore, layerCgm, layerTransport, layerExec, layerEngine, layerStore} {
		sum += r.Metrics[l+".self_share"]
	}
	// The harness's own spans (generator lateness) are the remainder.
	if sum < 0.5 || sum > 1.0001 {
		t.Errorf("%s: layer shares sum to %.4f of the root wall time", r.Workload, sum)
	}
}

func TestLayerTableSumsToWall(t *testing.T) {
	rec := newRecorder()
	root := rec.add(span{Name: "op", Layer: layerBench, Parent: -1, Start: 0, End: 1000, Traced: true})
	call := rec.add(span{Name: "core.MixedBatch", Layer: layerCore, Parent: root, Start: 100, End: 900})
	// Two ranks of one superstep overlap: they split the covered interval.
	rec.add(span{Name: "x:a", Layer: layerCgm, Parent: call, Start: 200, End: 600})
	rec.add(span{Name: "x:b", Layer: layerCgm, Parent: call, Start: 400, End: 800})
	rec.add(span{Name: "op", Layer: layerBench, Parent: -1, Start: 0, End: 5000}) // not traced: ignored
	self, wall, roots := rec.layerTable()
	if roots != 1 || wall != 1000 {
		t.Fatalf("roots %d wall %d", roots, wall)
	}
	want := map[string]int64{unaccounted: 200, layerCore: 200, layerCgm: 600}
	var sum int64
	for l, ns := range self {
		sum += ns
		if want[l] != ns {
			t.Errorf("layer %s: self %d, want %d", l, ns, want[l])
		}
	}
	if sum != wall {
		t.Errorf("rows sum to %d, wall is %d", sum, wall)
	}
}

// TestCompareVerdicts walks the four verdicts on latency_p50_ms, whose
// bound is 0.25. A run is given by its trials; it reports the second best.
func TestCompareVerdicts(t *testing.T) {
	mk := func(runs ...[]float64) *set {
		s := &set{}
		for _, trials := range runs {
			r := newResult(runCfg{}, wServe)
			r.setTiming("latency_p50_ms", trials, false)
			s.Results = append(s.Results, r)
		}
		return s
	}
	cases := []struct {
		a, b    *set
		verdict string
		worse   int
	}{
		{mk([]float64{9.8, 10, 10.1, 11, 14}), mk([]float64{10.5, 11, 11.1, 12, 13}), "unchanged", 0},
		{mk([]float64{9.8, 10, 10.1, 11, 12}), mk([]float64{12.5, 13, 13.1, 14, 15}), "WORSE", 1},
		{mk([]float64{9.8, 10, 10.1, 11, 12}), mk([]float64{6.5, 7, 7.1, 8, 9}), "improved", 0},
		// Beyond the bound, but the trials overlap: cannot tell.
		{mk([]float64{9.8, 10, 10.1, 11, 14}), mk([]float64{12.5, 13, 13.1, 14, 15}), "unresolved", 0},
		// Inside the bound, but the trials around the reported one are wide.
		{mk([]float64{8, 10, 13, 14, 15}), mk([]float64{10.5, 11, 11.1, 12, 13}), "unresolved", 0},
		// Several runs per side: the runs are the samples.
		{mk([]float64{9, 9}, []float64{10, 10}, []float64{13, 13}), mk([]float64{10, 10}, []float64{12, 12}, []float64{14, 14}), "unresolved", 0},
		{mk([]float64{9, 9}, []float64{10, 10}, []float64{11, 11}), mk([]float64{12, 12}, []float64{13, 13}, []float64{15, 15}), "WORSE", 1},
	}
	for i, c := range cases {
		var out bytes.Buffer
		worse := compareSets(&out, c.a, c.b)
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("case %d: worse=%d, want %d and verdict %q in:\n%s", i, worse, c.worse, c.verdict, out.String())
		}
	}
}
