package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/persist"
)

// Durability layout. A store directory holds:
//
//	checkpoint          persist.SaveSet snapshot of the live set at seq c
//	wal-<startSeq>.log  mutation records for versions ≥ startSeq
//
// Every logical mutation appends one WAL record; compactions append
// nothing (levels are derived state, deterministically rebuildable).
// Checkpoint rotates the WAL to a fresh segment at the captured seq,
// writes the snapshot to a temp file, renames it into place, and only
// then deletes segments that predate it — a crash at any point leaves
// either the old checkpoint with its full segment chain or the new one
// with its (possibly still overlapping-by-zero) tail. Recovery loads
// the newest checkpoint and replays, in startSeq order, every segment
// at or after it; a torn final record (partial write at crash) ends
// replay exactly like an LSM WAL tail.

const (
	walInsert byte = 1
	walDelete byte = 2

	checkpointName = "checkpoint"
	walPrefix      = "wal-"
	walSuffix      = ".log"
)

// wal is one append-only segment file. Writes go straight to the file
// descriptor (no userspace buffering), so an abandoned store loses at
// most what the OS page cache held — and nothing at all with SyncWAL.
type wal struct {
	path string
	f    *os.File
	sync bool
	buf  []byte
}

func walName(startSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", walPrefix, startSeq, walSuffix)
}

func openWAL(dir string, startSeq uint64, sync bool) (*wal, error) {
	path := filepath.Join(dir, walName(startSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal segment: %w", err)
	}
	return &wal{path: path, f: f, sync: sync}, nil
}

// append logs one mutation: [len u32][payload][crc32(payload) u32],
// payload = [op u8][npts u32][{id i32, coords i32×dims} ...].
func (w *wal) append(op byte, pts []geom.Point) error {
	dims := pts[0].Dims()
	need := 1 + 4 + len(pts)*4*(1+dims)
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(need))
	w.buf = append(w.buf, op)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(pts)))
	for _, p := range pts {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(p.ID))
		for _, x := range p.X {
			w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(x))
		}
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf[4:]))
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("store: appending wal record: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing wal: %w", err)
		}
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// walRecord is one decoded mutation.
type walRecord struct {
	op  byte
	pts []geom.Point
}

// readSegment decodes a segment, stopping cleanly at a torn tail.
func readSegment(path string, dims int) ([]walRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading wal segment: %w", err)
	}
	var recs []walRecord
	for off := 0; off < len(data); {
		if off+4 > len(data) {
			break // torn length header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+4+n+4 > len(data) {
			break // torn payload or crc
		}
		payload := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt tail
		}
		off += 4 + n + 4
		if len(payload) < 5 {
			return nil, fmt.Errorf("store: wal record too short in %s", path)
		}
		op := payload[0]
		if op != walInsert && op != walDelete {
			return nil, fmt.Errorf("store: wal record has unknown op %d in %s", op, path)
		}
		npts := int(binary.LittleEndian.Uint32(payload[1:]))
		if len(payload) != 5+npts*4*(1+dims) {
			return nil, fmt.Errorf("store: wal record sized for wrong dims in %s", path)
		}
		pts := make([]geom.Point, npts)
		p := 5
		for i := range pts {
			pts[i].ID = int32(binary.LittleEndian.Uint32(payload[p:]))
			p += 4
			pts[i].X = make([]geom.Coord, dims)
			for j := 0; j < dims; j++ {
				pts[i].X[j] = geom.Coord(binary.LittleEndian.Uint32(payload[p:]))
				p += 4
			}
		}
		recs = append(recs, walRecord{op: op, pts: pts})
	}
	return recs, nil
}

// nextSegStart picks the start label for a fresh WAL segment: at least
// atLeast, and strictly greater than every segment already on disk.
// Crash recovery renumbers seqs (compaction bumps are not WAL-logged),
// so the in-memory seq can lag a segment name left by an earlier
// incarnation — naming monotonically past everything on disk keeps two
// invariants the replay and prune rules rely on: segment names strictly
// increase across rotations, and a checkpoint's recorded seq (its
// rotation segment's name) supersedes exactly the segments named below
// it.
func nextSegStart(dir string, atLeast uint64) (uint64, error) {
	seqs, err := segments(dir)
	if err != nil {
		return 0, err
	}
	if len(seqs) > 0 && seqs[len(seqs)-1] >= atLeast {
		return seqs[len(seqs)-1] + 1, nil
	}
	return atLeast, nil
}

// segments lists the directory's WAL segments sorted by startSeq.
func segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, v)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recover loads the checkpoint (if any), replays the WAL tail, and
// leaves the store appending to a fresh segment at the recovered seq.
// Called from Open before the store is shared.
func (s *Store) recover() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: creating %s: %w", s.dir, err)
	}

	var checkSeq uint64
	ckPath := filepath.Join(s.dir, checkpointName)
	if f, err := os.Open(ckPath); err == nil {
		snap, lerr := persist.LoadSet(f)
		f.Close()
		if lerr != nil {
			return lerr
		}
		if s.cfg.Dims == 0 {
			s.cfg.Dims = snap.Dims
		} else if s.cfg.Dims != snap.Dims {
			return fmt.Errorf("store: config says %d dims, checkpoint says %d", s.cfg.Dims, snap.Dims)
		}
		checkSeq = snap.Seq
		s.seq = snap.Seq
		if len(snap.Points) > 0 {
			// buildLevel returns machine aborts (e.g. a cluster worker
			// dying mid-rebuild) as errors, so a bad cluster fails Open
			// cleanly instead of crashing.
			built, err := s.buildLevel(snap.Points)
			if err != nil {
				return fmt.Errorf("store: rebuilding checkpoint: %w", err)
			}
			s.levels = []*core.Tree{built}
			s.levelRefs[built]++ // the store's own slot reference
			s.liveN = len(snap.Points)
			for _, p := range snap.Points {
				s.liveIDs[p.ID] = struct{}{}
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: opening checkpoint: %w", err)
	}
	if s.cfg.Dims < 1 {
		return nil // Open reports the missing-dims error uniformly
	}

	// Replay every segment at or after the checkpoint, oldest first.
	seqs, err := segments(s.dir)
	if err != nil {
		return err
	}
	for _, start := range seqs {
		if start < checkSeq {
			continue
		}
		recs, err := readSegment(filepath.Join(s.dir, walName(start)), s.cfg.Dims)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if _, err := s.mutate(rec.op, rec.pts, false); err != nil {
				return fmt.Errorf("store: replaying wal: %w", err)
			}
		}
	}
	// Replay used the normal mutation path with the compactor not yet
	// running; fold what tripped so the recovered store starts fresh.
	for s.compactPass() {
	}

	// Renumbering during replay may have left s.seq behind segment
	// names from the previous incarnation; jump past them so segment
	// names and future checkpoint seqs stay strictly monotonic.
	start, err := nextSegStart(s.dir, s.seq)
	if err != nil {
		return err
	}
	s.seq = start
	w, err := openWAL(s.dir, start, s.cfg.SyncWAL)
	if err != nil {
		return err
	}
	s.wal = w
	return nil
}

// Checkpoint captures the current live set through internal/persist,
// rotates the WAL, and prunes segments the new checkpoint supersedes.
// On return the on-disk state recovers to (at least) the captured
// version even if the process dies immediately after. Concurrent
// checkpoints serialize: interleaving two could rename an older
// snapshot over a newer one after the newer call pruned the segments
// covering the gap.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("store: ephemeral store (no directory) cannot checkpoint")
	}
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	cpStart := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	v := s.cur.Load()
	v.pins++ // keep the snapshot's levels alive through the O(n) read below
	// Rotate: records after this point belong to the new segment; every
	// segment named below it only holds mutations the snapshot (taken
	// at v, which is exactly the WAL state — mutations hold mu too)
	// already embodies. The rotation label, not v.seq, is what the
	// checkpoint records as its seq: names stay strictly monotonic even
	// across crash-recovery renumbering, so the "replay ≥ checkpoint
	// seq, prune < it" rules can never resurrect or double-apply a
	// record.
	rotStart, err := nextSegStart(s.dir, v.seq)
	if err != nil {
		v.pins--
		s.mu.Unlock()
		return err
	}
	w, err := openWAL(s.dir, rotStart, s.cfg.SyncWAL)
	if err != nil {
		v.pins--
		s.mu.Unlock()
		return err
	}
	old := s.wal
	s.wal = w
	if s.seq < rotStart {
		s.seq = rotStart
	}
	s.mu.Unlock()
	old.close()
	pts, err := v.AllLive() // outside mu: v is immutable, writers need not stall on O(n) work
	v.Release()
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}

	f, err := os.CreateTemp(s.dir, checkpointName+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: creating checkpoint: %w", err)
	}
	tmp := f.Name()
	if err := persist.SaveSet(f, pts, s.cfg.Dims, s.cfg.P, rotStart); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, checkpointName)); err != nil {
		return fmt.Errorf("store: installing checkpoint: %w", err)
	}
	s.observeNanos("store_checkpoint_ns", time.Since(cpStart).Nanoseconds())
	s.event("checkpoint", fmt.Sprintf("%d live points at seq %d (%s)", len(pts), rotStart, time.Since(cpStart).Round(time.Millisecond)))
	// The rename is the commit point; superseded segments can go.
	seqs, err := segments(s.dir)
	if err != nil {
		return err
	}
	for _, start := range seqs {
		if start < rotStart {
			os.Remove(filepath.Join(s.dir, walName(start)))
		}
	}
	s.checkpoints.Add(1)
	return nil
}
