package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"strings"

	"repro/internal/brute"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d int, idBase int32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x := make([]geom.Coord, d)
		for j := range x {
			x[j] = geom.Coord(rng.Intn(4 * (n + 1)))
		}
		pts[i] = geom.Point{ID: idBase + int32(i), X: x}
	}
	return pts
}

func randomBoxes(rng *rand.Rand, q, span, d int) []geom.Box {
	boxes := make([]geom.Box, q)
	for i := range boxes {
		lo := make([]geom.Coord, d)
		hi := make([]geom.Coord, d)
		for j := 0; j < d; j++ {
			a := geom.Coord(rng.Intn(4 * (span + 1)))
			b := geom.Coord(rng.Intn(4 * (span + 1)))
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return boxes
}

// checkOracle compares counts and reports of the store's current
// version against a brute scan of the expected live set.
func checkOracle(t *testing.T, s *Store, live []geom.Point, boxes []geom.Box) {
	t.Helper()
	bf := brute.New(live)
	counts, err := s.CountBatch(boxes)
	if err != nil {
		t.Fatalf("count batch: %v", err)
	}
	reports, err := s.ReportBatch(boxes)
	if err != nil {
		t.Fatalf("report batch: %v", err)
	}
	for i, b := range boxes {
		if counts[i] != int64(bf.Count(b)) {
			t.Fatalf("box %d: count %d, oracle %d", i, counts[i], bf.Count(b))
		}
		if !reflect.DeepEqual(brute.IDs(reports[i]), brute.IDs(bf.Report(b))) {
			t.Fatalf("box %d: report mismatch (%d vs %d pts)", i, len(reports[i]), bf.Count(b))
		}
	}
}

func TestMutationsMatchOracle(t *testing.T) {
	for _, p := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(p)))
		s, err := Open("", Config{Dims: 2, P: p, MemtableCap: 32, Sync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		live := map[int32]geom.Point{}
		var nextID int32
		apply := func() []geom.Point {
			out := make([]geom.Point, 0, len(live))
			for _, pt := range live {
				out = append(out, pt)
			}
			return out
		}
		for round := 0; round < 30; round++ {
			switch rng.Intn(3) {
			case 0, 1: // insert a batch
				pts := randomPoints(rng, 1+rng.Intn(25), 2, nextID)
				nextID += int32(len(pts))
				if _, err := s.InsertBatch(pts); err != nil {
					t.Fatal(err)
				}
				for _, pt := range pts {
					live[pt.ID] = pt
				}
			case 2: // delete some live points
				var del []geom.Point
				for _, pt := range live {
					if rng.Intn(3) == 0 {
						del = append(del, pt)
					}
					if len(del) == 10 {
						break
					}
				}
				if _, err := s.DeleteBatch(del); err != nil {
					t.Fatal(err)
				}
				for _, pt := range del {
					delete(live, pt.ID)
				}
			}
			checkOracle(t, s, apply(), randomBoxes(rng, 6, 60, 2))
		}
		if s.LiveN() != len(live) {
			t.Fatalf("p=%d: store says %d live, oracle %d", p, s.LiveN(), len(live))
		}
	}
}

func TestVersionSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := Open("", Config{Dims: 2, P: 2, MemtableCap: 16, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first := randomPoints(rng, 40, 2, 0)
	if _, err := s.InsertBatch(first); err != nil {
		t.Fatal(err)
	}
	pinned := s.Pin()
	boxes := randomBoxes(rng, 8, 40, 2)
	before, err := pinned.CountBatch(boxes)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate heavily: inserts, deletes, flushes, a fold.
	if _, err := s.InsertBatch(randomPoints(rng, 100, 2, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteBatch(first[:30]); err != nil {
		t.Fatal(err)
	}
	s.Compact()

	// The pinned version still answers as of its epoch.
	after, err := pinned.CountBatch(boxes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("pinned version drifted: %v vs %v", before, after)
	}
	bf := brute.New(first)
	for i, b := range boxes {
		if after[i] != int64(bf.Count(b)) {
			t.Fatalf("pinned box %d: %d vs oracle %d", i, after[i], bf.Count(b))
		}
	}
	if s.Version() <= pinned.Seq() {
		t.Fatal("version did not advance across mutations")
	}
}

// TestPinnedVersionsAnswerIdentically pins a version after every
// mutation of a Sync store that keeps flushing, carrying and folding,
// and re-asks every pinned version the same count and report batch after
// each later step: its answers must never change, and must match the
// oracle of its own seq.
func TestPinnedVersionsAnswerIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, err := Open("", Config{Dims: 2, P: 2, MemtableCap: 24, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boxes := randomBoxes(rng, 10, 20, 2) // the span of randomPoints batches of ≤ 20
	ask := func(v *Version) ([]int64, [][]geom.Point) {
		t.Helper()
		counts, err := v.CountBatch(boxes)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := v.ReportBatch(boxes)
		if err != nil {
			t.Fatal(err)
		}
		return counts, reports
	}
	type pinned struct {
		v       *Version
		counts  []int64
		reports [][]geom.Point
	}
	var pins []pinned
	live := map[int32]geom.Point{}
	var nextID int32
	for step := 0; step < 40; step++ {
		if step%3 == 2 && len(live) > 0 {
			var del []geom.Point
			k := 1 + rng.Intn(20)
			for _, p := range live {
				if len(del) == k {
					break
				}
				del = append(del, p)
			}
			if _, err := s.DeleteBatch(del); err != nil {
				t.Fatal(err)
			}
			for _, p := range del {
				delete(live, p.ID)
			}
		} else {
			pts := randomPoints(rng, 1+rng.Intn(20), 2, nextID)
			nextID += int32(len(pts))
			if _, err := s.InsertBatch(pts); err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				live[p.ID] = p
			}
		}
		v := s.Pin()
		counts, reports := ask(v)
		var want []geom.Point
		for _, p := range live {
			want = append(want, p)
		}
		bf := brute.New(want)
		for i, b := range boxes {
			if counts[i] != int64(bf.Count(b)) || !reflect.DeepEqual(brute.IDs(reports[i]), brute.IDs(bf.Report(b))) {
				t.Fatalf("step %d box %d: count %d, oracle %d", step, i, counts[i], bf.Count(b))
			}
		}
		pins = append(pins, pinned{v, counts, reports})
		for _, p := range pins {
			c, r := ask(p.v)
			if !reflect.DeepEqual(c, p.counts) || !reflect.DeepEqual(r, p.reports) {
				t.Fatalf("step %d: the version pinned at seq %d changed its answers", step, p.v.Seq())
			}
		}
	}
	for _, p := range pins {
		p.v.Release()
	}
	if st := s.Stats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("want flushes and folds underneath the pins: %+v", st)
	}
}

// TestWholeSpaceReportManyTombstones reports the whole space, and
// random boxes, with 4 096 tombstones outstanding over a level and a
// memtable: every tombstoned point must be dropped, and only those.
func TestWholeSpaceReportManyTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(rng, 9000, 2, 0)
	s, err := Open("", Config{Dims: 2, P: 2, MemtableCap: 1 << 20, ShadowFrac: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.BulkLoad(core.SliceChunks(pts[:8000], 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(pts[8000:]); err != nil {
		t.Fatal(err)
	}
	// Tombstones over both the level and the memtable.
	var del, keep []geom.Point
	for i, p := range pts {
		if i%2 == 0 && len(del) < 4096 {
			del = append(del, p)
		} else {
			keep = append(keep, p)
		}
	}
	if _, err := s.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Shadow != 4096 || st.Compactions != 0 {
		t.Fatalf("want 4096 outstanding tombstones: %+v", st)
	}
	whole := geom.Box{Lo: []geom.Coord{math.MinInt32, math.MinInt32}, Hi: []geom.Coord{math.MaxInt32, math.MaxInt32}}
	checkOracle(t, s, keep, append([]geom.Box{whole}, randomBoxes(rng, 16, 9000, 2)...))
}

// TestMixedRejectsBadBatches: a batch whose ops and boxes disagree in
// length, that asks for an aggregate, or that holds a box of the wrong
// dimensionality, is an error, not a panic, and the store serves on.
func TestMixedRejectsBadBatches(t *testing.T) {
	s, err := Open("", Config{Dims: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := s.Pin()
	defer v.Release()
	box := geom.Box{Lo: []geom.Coord{0}, Hi: []geom.Coord{9}}
	if _, err := Mixed[struct{}](v, []core.MixedOp{core.OpCount}, []geom.Box{box, box}); err == nil ||
		!strings.Contains(err.Error(), "1 ops for 2 boxes") {
		t.Fatalf("length mismatch: %v", err)
	}
	if _, err := Mixed[struct{}](v, []core.MixedOp{core.OpCount, core.OpAggregate}, []geom.Box{box, box}); err == nil ||
		!strings.Contains(err.Error(), "aggregate") {
		t.Fatalf("aggregate query: %v", err)
	}
	if _, err := Mixed[struct{}](v, []core.MixedOp{core.OpReport, core.MixedOp(3)}, []geom.Box{box, box}); err == nil ||
		!strings.Contains(err.Error(), "query 1: unknown op MixedOp(3)") {
		t.Fatalf("unknown op: %v", err)
	}
	flat := geom.Box{Lo: []geom.Coord{0, 0}, Hi: []geom.Coord{9, 9}}
	if _, err := Mixed[struct{}](v, []core.MixedOp{core.OpCount, core.OpCount}, []geom.Box{box, flat}); err == nil ||
		!strings.Contains(err.Error(), "query 1: box has 2 dims, store has 1") {
		t.Fatalf("wrong dims: %v", err)
	}
	if _, err := Mixed[struct{}](v, []core.MixedOp{core.OpCount}, []geom.Box{box}); err != nil {
		t.Fatalf("a valid batch after the refused ones: %v", err)
	}
}

// TestMutationsCopyCallerCoordinates: the store keeps no view of a
// mutation's coordinate slices, so a caller reusing them after
// InsertBatch or DeleteBatch changes no answer.
func TestMutationsCopyCallerCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := Open("", Config{Dims: 2, P: 2, MemtableCap: 1 << 10, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pts := randomPoints(rng, 100, 2, 0)
	kept := make([]geom.Point, len(pts))
	for i, p := range pts {
		kept[i] = p.Clone()
	}
	scribble := func(ps []geom.Point) {
		for _, p := range ps {
			p.X[0], p.X[1] = -1, -1
		}
	}
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	scribble(pts)
	boxes := randomBoxes(rng, 12, 100, 2)
	checkOracle(t, s, kept, boxes)

	del := make([]geom.Point, 30)
	for i := range del {
		del[i] = kept[i].Clone()
	}
	if _, err := s.DeleteBatch(del); err != nil {
		t.Fatal(err)
	}
	scribble(del)
	checkOracle(t, s, kept[30:], boxes)
}

func TestShadowFoldCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, err := Open("", Config{Dims: 2, P: 2, MemtableCap: 16, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pts := randomPoints(rng, 160, 2, 0)
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes == 0 {
		t.Fatal("memtable never flushed")
	}
	// Delete 45% — must trip the ≥25% shadow fold.
	if _, err := s.DeleteBatch(pts[:72]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no fold after deleting 45%%: %+v", st)
	}
	if st.Shadow != 0 {
		t.Fatalf("shadow not folded away: %d tombstones left", st.Shadow)
	}
	checkOracle(t, s, pts[72:], randomBoxes(rng, 10, 160, 2))
}

func TestEmptyStoreQueries(t *testing.T) {
	s, err := Open("", Config{Dims: 2, P: 2, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkOracle(t, s, nil, randomBoxes(rand.New(rand.NewSource(1)), 3, 10, 2))
	if st := s.Stats(); st.Levels != 0 || st.Live != 0 {
		t.Errorf("empty store reports %d levels, %d live", st.Levels, st.Live)
	}
}

// insertBlocks inserts pts in memtable-sized batches: in Sync mode every
// batch is exactly one flush, i.e. one binary-counter increment of the
// logarithmic method.
func insertBlocks(t *testing.T, s *Store, pts []geom.Point, base int) {
	t.Helper()
	for off := 0; off < len(pts); off += base {
		if _, err := s.InsertBatch(pts[off : off+base]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLevelsAreBinaryCounter(t *testing.T) {
	const base = 4
	s, err := Open("", Config{Dims: 1, P: 2, MemtableCap: base, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// 7 blocks of base size → levels 0,1,2 occupied (binary 111).
	insertBlocks(t, s, randomPoints(rand.New(rand.NewSource(1)), 7*base, 1, 0), base)
	st := s.Stats()
	if st.Levels != 3 {
		t.Errorf("levels = %d, want 3 (binary 111)", st.Levels)
	}
	if st.Live != 28 || st.Memtable != 0 {
		t.Errorf("live = %d, memtable = %d", st.Live, st.Memtable)
	}
	// The eighth block carries through all three: one level (binary 1000).
	insertBlocks(t, s, randomPoints(rand.New(rand.NewSource(2)), base, 1, 7*base), base)
	if st := s.Stats(); st.Levels != 1 || st.Flushes != 8 {
		t.Errorf("after 8 blocks: levels = %d, flushes = %d, want 1 and 8", st.Levels, st.Flushes)
	}
}

func TestAmortizedRebuildMass(t *testing.T) {
	// The logarithmic method rebuilds each point O(log(n/base)) times.
	const base, total = 4, 256
	s, err := Open("", Config{Dims: 1, P: 2, MemtableCap: base, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	insertBlocks(t, s, randomPoints(rand.New(rand.NewSource(7)), total, 1, 0), base)
	perPoint := float64(s.Stats().BuiltPoints) / float64(total)
	if perPoint > 8 { // log2(256/4) = 6
		t.Errorf("amortized rebuild mass %.1f per point, want ≤ ~log(n/base)", perPoint)
	}
	if perPoint < 1 {
		t.Errorf("rebuild mass %.2f per point: BuiltPoints is not counting level builds", perPoint)
	}
}

func TestCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 90, 3, 0)

	s, err := Open(filepath.Join(dir, "db"), Config{Dims: 3, P: 2, MemtableCap: 16, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(pts[:60]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteBatch(pts[:10]); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL tail after the checkpoint.
	if _, err := s.InsertBatch(pts[60:]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteBatch(pts[60:65]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(filepath.Join(dir, "db"), Config{P: 2, MemtableCap: 16, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Dims() != 3 {
		t.Fatalf("recovered dims %d", re.Dims())
	}
	var expect []geom.Point
	expect = append(expect, pts[10:60]...)
	expect = append(expect, pts[65:]...)
	if re.LiveN() != len(expect) {
		t.Fatalf("recovered %d live points, want %d", re.LiveN(), len(expect))
	}
	checkOracle(t, re, expect, randomBoxes(rng, 12, 90, 3))
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(rng, 50, 2, 0)

	s, err := Open(dir, Config{Dims: 2, P: 1, MemtableCap: 8, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteBatch(pts[:7]); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the WAL alone must reconstruct the state.
	re, err := Open(dir, Config{Dims: 2, P: 1, MemtableCap: 8, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkOracle(t, re, pts[7:], randomBoxes(rng, 10, 50, 2))
	_ = s // the abandoned handle is never used again
}

// TestSyncWALRecovers runs the store with an fsync after every logged
// mutation: inserts and deletes applied with SyncWAL, a Close with no
// checkpoint, and a reopen that must replay the WAL into exactly the
// live set the brute oracle holds.
func TestSyncWALRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(rng, 80, 2, 0)
	cfg := Config{Dims: 2, P: 2, MemtableCap: 16, Sync: true, SyncWAL: true}

	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		del bool
		pts []geom.Point
	}{{false, pts[:50]}, {true, pts[:12]}, {false, pts[50:]}, {true, pts[70:75]}} {
		apply := s.InsertBatch
		if step.del {
			apply = s.DeleteBatch
		}
		if _, err := apply(step.pts); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Checkpoints != 0 || st.WALRecords == 0 {
		t.Fatalf("before close: %d checkpoints, %d WAL records; want 0 and some", st.Checkpoints, st.WALRecords)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var expect []geom.Point
	expect = append(expect, pts[12:70]...)
	expect = append(expect, pts[75:]...)
	if re.LiveN() != len(expect) {
		t.Fatalf("recovered %d live points, want %d", re.LiveN(), len(expect))
	}
	checkOracle(t, re, expect, randomBoxes(rng, 12, 80, 2))
}

func TestTornWALTailIsIgnored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s, err := Open(dir, Config{Dims: 1, P: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(geom.Point{ID: 1, X: []geom.Coord{5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(geom.Point{ID: 2, X: []geom.Coord{9}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the last record in half.
	seqs, err := segments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no wal segment: %v", err)
	}
	path := filepath.Join(dir, walName(seqs[len(seqs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Config{Dims: 1, P: 1, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.LiveN(); n != 1 {
		t.Fatalf("recovered %d points from torn wal, want 1", n)
	}
}

// TestStaleHighNamedSegmentNotReplayedTwice is the regression test for
// the checkpoint-crash double-replay bug: a WAL segment left behind with
// an inflated start label (a checkpoint rotation that crashed before the
// snapshot rename, after recovery renumbered seqs downward) must not
// survive the next successful checkpoint and be replayed on top of it.
func TestStaleHighNamedSegmentNotReplayedTwice(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	cfg := Config{Dims: 1, P: 1, MemtableCap: 1024, Sync: true}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for i := 0; i < 5; i++ {
		pts = append(pts, geom.Point{ID: int32(i), X: []geom.Coord{geom.Coord(10 * i)}})
	}
	if _, err := s.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the crashed incarnation: its only segment carries a
	// label far beyond anything the next recovery will renumber to.
	seqs, err := segments(dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", seqs, err)
	}
	if err := os.Rename(filepath.Join(dir, walName(seqs[0])), filepath.Join(dir, walName(50))); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.LiveN() != 5 {
		t.Fatalf("recovered %d points, want 5", re.LiveN())
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Insert(geom.Point{ID: 100, X: []geom.Coord{99}}); err != nil {
		t.Fatal(err)
	}
	re.Close()

	// The checkpoint embodies the 5 points; if wal-50 outlived it, this
	// recovery replays those inserts a second time and over-counts.
	fin, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fin.Close()
	if fin.LiveN() != 6 {
		t.Fatalf("recovered %d points after checkpoint+insert, want 6 (stale segment replayed?)", fin.LiveN())
	}
	box := []geom.Box{{Lo: []geom.Coord{0}, Hi: []geom.Coord{100}}}
	got, err := fin.CountBatch(box)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 {
		t.Fatalf("count %d, want 6", got[0])
	}
}

func TestDoubleDeleteRejected(t *testing.T) {
	s, err := Open("", Config{Dims: 1, MemtableCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := geom.Point{ID: 3, X: []geom.Coord{1}}
	if _, err := s.Insert(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(p); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	s, err := Open("", Config{Dims: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := s.Pin()
	if _, err := s.Insert(geom.Point{ID: 1, X: []geom.Coord{4}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Insert(geom.Point{ID: 2, X: []geom.Coord{5}}); err != ErrClosed {
		t.Fatalf("mutation after close: %v", err)
	}
	// Pinned versions outlive Close.
	got, gerr := v.CountBatch([]geom.Box{{Lo: []geom.Coord{0}, Hi: []geom.Coord{10}}})
	if gerr != nil {
		t.Fatal(gerr)
	}
	if got[0] != 0 {
		t.Fatalf("pre-insert pin sees %d", got[0])
	}
}

func TestDimsMismatchRejected(t *testing.T) {
	s, err := Open("", Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Insert(geom.Point{ID: 1, X: []geom.Coord{4}}); err == nil {
		t.Fatal("1-dim point accepted by 2-dim store")
	}
	if _, err := Open("", Config{}); err == nil {
		t.Fatal("store without dims accepted")
	}
}

// poisonedProvider yields machines whose every Run aborts — the state a
// TCP cluster is in after losing a worker.
type poisonedProvider struct{}

func (poisonedProvider) P() int { return 1 }
func (poisonedProvider) NewMachine() (*cgm.Machine, error) {
	m := cgm.New(cgm.Config{P: 1})
	func() {
		defer func() { recover() }()
		m.Run(func(*cgm.Proc) { panic("worker lost") })
	}()
	return m, nil // poisoned: the next Run fails fast
}
func (poisonedProvider) Close() error { return nil }

// TestRecoveryBuildFailureReturnsError: a provider whose builds abort
// (a broken cluster) must fail Open with an error — the checkpoint
// rebuild path has to convert machine aborts exactly like the
// compactor's buildLevel does, never crash the process.
func TestRecoveryBuildFailureReturnsError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	rng := rand.New(rand.NewSource(13))
	s, err := Open(dir, Config{Dims: 2, P: 1, MemtableCap: 8, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBatch(randomPoints(rng, 30, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Config{Provider: poisonedProvider{}, MemtableCap: 8, Sync: true})
	if err == nil {
		t.Fatal("Open succeeded on a provider whose builds abort")
	}
	if !strings.Contains(err.Error(), "rebuilding checkpoint") {
		t.Fatalf("wrong error: %v", err)
	}
}
