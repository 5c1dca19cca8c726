package expt

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestF1RootSegment(t *testing.T) {
	tab := F1()
	if len(tab.Rows) != 4 {
		t.Fatalf("F1 has %d levels, want 4", len(tab.Rows))
	}
	if tab.Rows[0][1] != "[1,8]" {
		t.Errorf("root row = %q, want [1,8]", tab.Rows[0][1])
	}
	if !strings.Contains(tab.Rows[3][1], "[8,8]") {
		t.Errorf("leaf row %q missing [8,8]", tab.Rows[3][1])
	}
}

func TestF2IndexColumnsAgree(t *testing.T) {
	tab := F2()
	for _, r := range tab.Rows {
		if r[1] != r[2] {
			t.Errorf("node %s: paper %s vs computed %s", r[0], r[1], r[2])
		}
	}
}

func TestF3ExactCounts(t *testing.T) {
	tab := F3()
	cells := map[string]string{}
	for _, r := range tab.Rows {
		cells[r[0]] = r[1]
	}
	if cells["grain g = ceil(n/p)"] != "8" {
		t.Errorf("grain = %s, want 8", cells["grain g = ceil(n/p)"])
	}
	if cells["dimension-one forest elements (want p)"] != "8" {
		t.Errorf("dim-1 elements = %s, want 8", cells["dimension-one forest elements (want p)"])
	}
}

func TestT1BoundsHold(t *testing.T) {
	tab := T1(Quick)
	if len(tab.Rows) == 0 {
		t.Fatal("T1 empty")
	}
	for _, r := range tab.Rows {
		ratio, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", r[5])
		}
		if ratio > 16 {
			t.Errorf("hat ratio %v too large in row %v", ratio, r)
		}
		fRatio, err := strconv.ParseFloat(r[7], 64)
		if err != nil {
			t.Fatalf("bad |F_i| ratio cell %q", r[7])
		}
		if fRatio > 6 {
			t.Errorf("forest part ratio %v too large in row %v", fRatio, r)
		}
	}
}

func TestT2RoundsConstant(t *testing.T) {
	tab := T2(Quick)
	var rounds []string
	for _, r := range tab.Rows {
		rounds = append(rounds, r[3])
	}
	for _, x := range rounds[1:] {
		if x != rounds[0] {
			t.Errorf("construction rounds vary across p: %v", rounds)
		}
	}
}

func TestT3SpeedupPositive(t *testing.T) {
	tab := T3(Quick)
	last := tab.Rows[len(tab.Rows)-1]
	sp, err := strconv.ParseFloat(last[7], 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", last[7])
	}
	if sp <= 0 {
		t.Errorf("speedup %v must be positive", sp)
	}
}

func TestT4bBalanceNearOne(t *testing.T) {
	tab := T4b(Quick)
	// At the largest selectivity the balance ratio must be sane.
	last := tab.Rows[len(tab.Rows)-1]
	bal, err := strconv.ParseFloat(last[5], 64)
	if err != nil {
		t.Fatalf("bad balance cell %q", last[5])
	}
	if bal > 1.6 {
		t.Errorf("report balance %v, want ≈ 1", bal)
	}
}

func TestE6SkewImprovement(t *testing.T) {
	tab := E6(Quick)
	// The last row is foci=1 (hardest skew): balanced must beat strawman.
	last := tab.Rows[len(tab.Rows)-1]
	if last[4] == "-" {
		t.Skip("no subqueries generated")
	}
	strawman, err1 := strconv.ParseFloat(last[4], 64)
	balanced, err2 := strconv.ParseFloat(last[5], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad cells %q %q", last[4], last[5])
	}
	if balanced > strawman+0.01 {
		t.Errorf("balanced %v worse than strawman %v under skew", balanced, strawman)
	}
}

func TestE7AllRoundsWithinBound(t *testing.T) {
	tab := E7(Quick)
	for _, r := range tab.Rows {
		ratio, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("bad cell %q", r[3])
		}
		if ratio > 4 {
			t.Errorf("round %s has h·p/s = %v, want O(1)", r[0], ratio)
		}
	}
}

func TestE8MonotoneGrowth(t *testing.T) {
	tab := E8(Quick)
	prev := 0
	for _, r := range tab.Rows {
		s, err := strconv.Atoi(r[2])
		if err != nil {
			t.Fatalf("bad nodes cell %q", r[2])
		}
		if s < prev {
			t.Errorf("space shrank with d: %v", tab.Rows)
		}
		prev = s
	}
}

func TestE11LayeredWinsModerateSelectivity(t *testing.T) {
	tab := E11(Quick)
	// Rows with selectivity 0.02: layered must not lose.
	checked := 0
	for _, r := range tab.Rows {
		if r[2] != "0.02" {
			continue
		}
		ratio, err := strconv.ParseFloat(r[7], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", r[7])
		}
		if ratio < 0.9 {
			t.Errorf("layered slower at moderate selectivity: %v (row %v)", ratio, r)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no moderate-selectivity rows")
	}
}

// TestE15ElementRowsAndCopyCache: the serve section holds one parsable
// ns/query row per (structure, kind), and the warm copy-cache install is
// under half the cold one (the table's own "≥ 2×" note). It asserts no
// timing ratio between the structures: E11 covers that.
func TestE15ElementRowsAndCopyCache(t *testing.T) {
	tab := E15(Quick)
	serve := make(map[[2]string]int)
	var cold, warm float64
	for _, r := range tab.Rows {
		switch r[0] {
		case "serve":
			if v, err := strconv.ParseFloat(r[3], 64); err != nil || v <= 0 {
				t.Fatalf("bad ns/query cell in %v", r)
			}
			serve[[2]string{r[1], r[2]}]++
		case "copy-cache":
			v, err := strconv.ParseFloat(r[4], 64)
			if err != nil {
				t.Fatalf("bad install cell in %v", r)
			}
			if strings.Contains(r[2], "cold") {
				cold = v
			} else {
				warm = v
			}
		default:
			t.Fatalf("unknown section in %v", r)
		}
	}
	for _, st := range []string{"rangetree", "layered"} {
		for _, kind := range []string{"count", "report", "aggregate"} {
			if n := serve[[2]string{st, kind}]; n != 1 {
				t.Errorf("%d serve rows for %s %s, want 1", n, st, kind)
			}
		}
	}
	if len(serve) != 6 {
		t.Errorf("serve rows for %d (structure, kind) pairs, want 6: %v", len(serve), serve)
	}
	if !(cold > 0 && warm < cold/2) {
		t.Errorf("warm copy-cache install %g µs is not under half the cold %g µs", warm, cold)
	}
}

func TestE12RoundsGrowWithLevels(t *testing.T) {
	tab := E12(Quick)
	folds := 0
	for _, r := range tab.Rows {
		switch r[0] {
		case "insert":
			levels, err1 := strconv.Atoi(r[2])
			rounds, err2 := strconv.Atoi(r[4])
			static, err3 := strconv.Atoi(r[6])
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("bad row %v", r)
			}
			if rounds != levels*static {
				t.Errorf("rounds %d != levels %d × static %d", rounds, levels, static)
			}
		case "delete":
			live, err1 := strconv.Atoi(r[1])
			shadow, err2 := strconv.Atoi(r[7])
			rebuilds, err3 := strconv.Atoi(r[8])
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("bad row %v", r)
			}
			// The automatic fold keeps the shadow strictly below the
			// 25% threshold after every delete batch lands.
			if 4*shadow >= live && shadow > 0 {
				t.Errorf("shadow %d not folded at live %d", shadow, live)
			}
			folds = rebuilds
		default:
			t.Fatalf("unknown phase %q", r[0])
		}
	}
	if folds == 0 {
		t.Error("delete phase never triggered a shadow fold")
	}
}

func TestE13BandParallelizes(t *testing.T) {
	tab := E13(Quick)
	found := false
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r[2], "band") {
			continue
		}
		found = true
		busy, err := strconv.Atoi(r[4])
		if err != nil {
			t.Fatalf("bad busy cell %q", r[4])
		}
		if busy < 2 {
			t.Errorf("band query busy procs = %d, want ≥ 2", busy)
		}
	}
	if !found {
		t.Fatal("no band row")
	}
}

func TestE14ProducesFiniteScores(t *testing.T) {
	tab := E14(Quick)
	geoRows := 0
	for _, r := range tab.Rows {
		if r[1] != "geo-mean" {
			continue
		}
		geoRows++
		score, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatalf("bad score cell %q", r[4])
		}
		// Predictions must stay within an order of magnitude; tighter
		// bounds are recorded (not asserted) because the host timing in
		// CI-sized quick runs is noisy.
		if score > 10 {
			t.Errorf("geo-mean error %v too large (row %v)", score, r)
		}
	}
	if geoRows != 2 {
		t.Fatalf("expected 2 geo-mean rows, got %d", geoRows)
	}
}

// TestSearchWorkloadRoundsMatchCountBatch keeps E14's search model honest:
// the round count it fits with is the one a counting batch runs.
func TestSearchWorkloadRoundsMatchCountBatch(t *testing.T) {
	const n, d, p = 1 << 10, 2, 4
	dt, _ := buildMeasured(n, d, p, 15)
	dt.Machine().ResetMetrics()
	dt.CountBatch(workload.Boxes(workload.QuerySpec{M: n, Dims: d, N: n, Selectivity: 0.01, Seed: 15}))
	got, want := dt.Machine().Metrics().CommRounds(), model.SearchWorkload(n, d, n).Rounds
	if got != want {
		t.Errorf("CountBatch ran %d rounds, model.SearchWorkload says %d", got, want)
	}
}

func TestRenderAndMarkdown(t *testing.T) {
	tab := F1()
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== F1") || !strings.Contains(out, "[1,8]") {
		t.Errorf("Render output missing content:\n%s", out)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "### F1") || !strings.Contains(md, "| level |") {
		t.Errorf("Markdown output missing content:\n%s", md)
	}
}

// TestIndexListsEveryExperiment: Index is the one list All and
// cmd/rangebench derive from, so an experiment left out of it cannot be
// run at all.
func TestIndexListsEveryExperiment(t *testing.T) {
	want := strings.Fields("F1 F2 F3 T1 T2 T3 T4A T4B E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16")
	if len(Index) != len(want) {
		t.Fatalf("Index has %d experiments, want %d", len(Index), len(want))
	}
	for i, e := range Index {
		if e.ID != want[i] || e.Run == nil {
			t.Errorf("Index[%d] = %q (runner set: %v), want %q", i, e.ID, e.Run != nil, want[i])
		}
	}
	// Figures ignore the scale: cheap enough to check the ID round-trips.
	for _, e := range Index[:3] {
		if tab := e.Run(Quick); tab.ID != e.ID {
			t.Errorf("Index entry %q runs table %q", e.ID, tab.ID)
		}
	}
}
