package persist

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

func buildSample(n, d, p int) *core.Tree {
	pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 7})
	return core.Build(cgm.New(cgm.Config{P: p}), pts)
}

// saveTree snapshots a tree's points; loadTree rebuilds them on mach.
func saveTree(t *testing.T, w io.Writer, dt *core.Tree) {
	t.Helper()
	pts, err := dt.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	if err := SavePoints(w, pts, dt.P()); err != nil {
		t.Fatal(err)
	}
}

func loadTree(t *testing.T, r io.Reader, mach *cgm.Machine) *core.Tree {
	t.Helper()
	snap, err := LoadPoints(r)
	if err != nil {
		t.Fatal(err)
	}
	return core.Build(mach, snap.Points)
}

func TestRoundTripSameWidth(t *testing.T) {
	dt := buildSample(200, 2, 4)
	var buf bytes.Buffer
	saveTree(t, &buf, dt)
	dt2 := loadTree(t, &buf, cgm.New(cgm.Config{P: 4}))
	if dt2.Verify() != nil {
		t.Fatal("reloaded tree fails verification")
	}
	// Identical query behaviour.
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 25; q++ {
		lo := []geom.Coord{geom.Coord(rng.Intn(200)), geom.Coord(rng.Intn(200))}
		hi := []geom.Coord{lo[0] + 30, lo[1] + 30}
		b := geom.Box{Lo: lo, Hi: hi}
		if dt.CountBatch([]geom.Box{b})[0] != dt2.CountBatch([]geom.Box{b})[0] {
			t.Fatalf("reloaded tree disagrees on %v", b)
		}
	}
}

func TestRoundTripDifferentWidth(t *testing.T) {
	dt := buildSample(150, 2, 8)
	var buf bytes.Buffer
	saveTree(t, &buf, dt)
	dt2 := loadTree(t, &buf, cgm.New(cgm.Config{P: 3}))
	if dt2.P() != 3 {
		t.Fatalf("reloaded width %d", dt2.P())
	}
	pts, err := dt.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	bf := brute.New(pts)
	b := geom.NewBox([]geom.Coord{10, 10}, []geom.Coord{100, 100})
	if dt2.CountBatch([]geom.Box{b})[0] != int64(bf.Count(b)) {
		t.Fatal("cross-width reload answers wrongly")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dt := buildSample(100, 2, 2)
	var buf bytes.Buffer
	saveTree(t, &buf, dt)
	// Flip one byte near the middle of the stream.
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40
	_, err := LoadPoints(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

func TestVersionGuard(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 10, Dims: 1, Dist: workload.Uniform, Seed: 1})
	var buf bytes.Buffer
	if err := SavePoints(&buf, pts, 1); err != nil {
		t.Fatal(err)
	}
	// Re-encode with a bumped version by decoding raw and re-saving.
	snap, err := LoadPoints(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = 99
	var buf2 bytes.Buffer
	if err := writeSnap(&buf2, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPoints(&buf2); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

func TestEmptySaveRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SavePoints(&buf, nil, 1); err == nil {
		t.Fatal("empty save accepted")
	}
}

func TestSetRoundTripAllowsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveSet(&buf, nil, 3, 4, core.BackendLayered, 17); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dims != 3 || snap.P != 4 || snap.Seq != 17 || len(snap.Points) != 0 {
		t.Fatalf("empty set round trip: %+v", snap)
	}
	// LoadPoints keeps refusing empty snapshots.
	var buf2 bytes.Buffer
	if err := SaveSet(&buf2, nil, 3, 4, core.BackendLayered, 17); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPoints(&buf2); err == nil {
		t.Fatal("LoadPoints accepted an empty set snapshot")
	}
}

func TestSetRoundTripCarriesSeq(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 40, Dims: 2, Dist: workload.Uniform, Seed: 3})
	var buf bytes.Buffer
	if err := SaveSet(&buf, pts, 2, 8, core.BackendRangeTree, 12345); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 12345 || len(snap.Points) != 40 {
		t.Fatalf("set snapshot: seq %d, %d points", snap.Seq, len(snap.Points))
	}
	if snap.Backend != core.BackendRangeTree {
		t.Fatalf("set snapshot backend %v, want the saving store's", snap.Backend)
	}
	if err := SaveSet(&buf, pts, 0, 8, core.BackendLayered, 1); err == nil {
		t.Fatal("set snapshot without dims accepted")
	}
}

// A snapshot written by a version-1 build (one gob message, no magic) is
// refused with a diagnostic naming the version this build reads — never
// misparsed as the raw layout, never a panic.
func TestGobSnapshotRejected(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 60, Dims: 2, Dist: workload.Uniform, Seed: 5})
	v1 := Snapshot{Version: 1, Dims: 2, P: 4, Seq: 77, Points: pts, Checksum: checksum(pts)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(io.Reader) (*Snapshot, error){"LoadSet": LoadSet, "LoadPoints": LoadPoints} {
		snap, err := load(bytes.NewReader(buf.Bytes()))
		if err == nil {
			t.Fatalf("%s accepted a gob snapshot: %+v", name, snap)
		}
		if want := fmt.Sprintf("version %d", Version); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: diagnostic %q does not name the supported %q", name, err, want)
		}
	}
}

func TestGarbageStream(t *testing.T) {
	if _, err := LoadPoints(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRoundTripPreservesBackend(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 150, Dims: 2, Dist: workload.Uniform, Seed: 9})
	for _, be := range []core.Backend{core.BackendLayered, core.BackendRangeTree} {
		var buf bytes.Buffer
		if err := SaveSet(&buf, pts, 2, 3, be, 1); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadSet(&buf)
		if err != nil {
			t.Fatal(err)
		}
		dt := core.BuildBackend(cgm.New(cgm.Config{P: 5}), snap.Points, snap.Backend)
		if dt.Backend() != be {
			t.Errorf("reloaded tree backend %v, want %v", dt.Backend(), be)
		}
	}
}
