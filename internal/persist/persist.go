// Package persist serializes point sets. Because Algorithm Construct is
// deterministic, the durable representation of a distributed range tree
// is its rank-space point set plus the build parameters: saving writes a
// versioned, checksummed snapshot; building on the loaded points yields
// the identical structure (possibly on a machine of a different width —
// the snapshot is machine-independent, exactly as a dataset moved between
// multicomputers would be).
package persist

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// Version is the snapshot format version: the raw layout below, the only
// one this build reads.
const Version = 2

// magic opens every version-2 snapshot. Its first byte cannot begin a gob
// stream (a gob stream opens with the uvarint byte count of its first
// type-descriptor message, always < 0x80), so a version-1 snapshot is
// refused at the first frame instead of being misparsed.
var magic = [4]byte{0xD7, 'R', 'T', '2'}

// The version-2 layout, using the wire primitives (uvarints for the small
// header fields, the standard point layout for the bulk payload):
//
//	magic (4B) · version · dims · p · backend · seq (8B LE)
//	· points (wire.AppendPoints) · checksum (8B LE)
//
// Loading slices the point section through one coordinate arena exactly
// like a received exchange block — a store restart no longer pays a gob
// round-trip per point.

// Snapshot is the serializable description of a point set with optional
// build parameters.
type Snapshot struct {
	Version int
	Dims    int
	P       int // machine width at save time (informational)
	// Backend is the element backend the saved set was built on.
	Backend core.Backend
	// Seq is the data version the snapshot captures (the mutable store's
	// checkpoint stamp).
	Seq      uint64
	Points   []geom.Point
	Checksum uint64
}

// checksum folds every coordinate and ID into an FNV-1a hash.
func checksum(pts []geom.Point) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	put := func(v int32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf)
	}
	for _, p := range pts {
		put(p.ID)
		for _, x := range p.X {
			put(x)
		}
	}
	return h.Sum64()
}

// SavePoints writes a snapshot of a raw rank point set (default backend).
func SavePoints(w io.Writer, pts []geom.Point, p int) error {
	if len(pts) == 0 {
		return fmt.Errorf("persist: refusing to save an empty point set")
	}
	snap := Snapshot{
		Version:  Version,
		Dims:     pts[0].Dims(),
		P:        p,
		Backend:  core.BackendLayered,
		Points:   pts,
		Checksum: checksum(pts),
	}
	return writeSnap(w, &snap)
}

// SaveSet writes a snapshot of a raw point set that may be empty — the
// mutable store's checkpoint path, which must be able to capture a store
// whose every point has been deleted. dims must be supplied explicitly
// because an empty set cannot reveal it; be records the element backend
// the saving store builds on; seq stamps the data version the set was
// captured at.
func SaveSet(w io.Writer, pts []geom.Point, dims, p int, be core.Backend, seq uint64) error {
	if dims < 1 {
		return fmt.Errorf("persist: set snapshot needs at least one dimension")
	}
	snap := Snapshot{
		Version:  Version,
		Dims:     dims,
		P:        p,
		Backend:  be,
		Seq:      seq,
		Points:   pts,
		Checksum: checksum(pts),
	}
	return writeSnap(w, &snap)
}

// writeSnap writes the version-2 raw layout in one Write call, through a
// pooled buffer.
func writeSnap(w io.Writer, snap *Snapshot) error {
	b := wire.GetBuf()
	b = append(b, magic[:]...)
	b = wire.AppendUvarint(b, uint64(snap.Version))
	b = wire.AppendUvarint(b, uint64(snap.Dims))
	b = wire.AppendUvarint(b, uint64(snap.P))
	b = wire.AppendUvarint(b, uint64(snap.Backend))
	b = wire.AppendU64(b, snap.Seq)
	b = wire.AppendPoints(b, snap.Points)
	b = wire.AppendU64(b, snap.Checksum)
	_, err := w.Write(b)
	wire.PutBuf(b)
	if err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	return nil
}

// LoadSet reads and validates a snapshot that may hold no points (the
// checkpoint counterpart of SaveSet).
func LoadSet(r io.Reader) (*Snapshot, error) {
	return load(r, true)
}

// LoadPoints reads and validates a snapshot.
func LoadPoints(r io.Reader) (*Snapshot, error) {
	return load(r, false)
}

func load(r io.Reader, allowEmpty bool) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	if len(data) < len(magic) || [4]byte(data) != magic {
		return nil, fmt.Errorf("persist: stream does not open with the snapshot magic; this build reads version %d (raw) snapshots only", Version)
	}
	rd := wire.NewReader(data[len(magic):])
	var snap Snapshot
	snap.Version = int(rd.Uvarint())
	if snap.Version != Version {
		return nil, fmt.Errorf("persist: snapshot version %d, this build reads %d", snap.Version, Version)
	}
	snap.Dims = int(rd.Uvarint())
	snap.P = int(rd.Uvarint())
	snap.Backend = core.Backend(rd.Uvarint())
	snap.Seq = rd.U64()
	arena := wire.NewArena(&rd)
	snap.Points = wire.ReadPoints(&rd, &arena)
	snap.Checksum = rd.U64()
	if err := rd.Finish(); err != nil {
		return nil, fmt.Errorf("persist: decoding snapshot: %w", err)
	}
	return validate(&snap, allowEmpty)
}

func validate(snap *Snapshot, allowEmpty bool) (*Snapshot, error) {
	if snap.Dims < 1 {
		return nil, fmt.Errorf("persist: snapshot header has %d dims", snap.Dims)
	}
	if len(snap.Points) == 0 && !allowEmpty {
		return nil, fmt.Errorf("persist: snapshot holds no points")
	}
	for i, p := range snap.Points {
		if p.Dims() != snap.Dims {
			return nil, fmt.Errorf("persist: point %d has %d dims, header says %d", i, p.Dims(), snap.Dims)
		}
	}
	if got := checksum(snap.Points); got != snap.Checksum {
		return nil, fmt.Errorf("persist: checksum mismatch: %x vs header %x", got, snap.Checksum)
	}
	return snap, nil
}
