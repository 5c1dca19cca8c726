// Package pointsfile is a fixed-width on-disk point format built for
// rank-local ingest: each worker reads its own shard file, so
// partitioned bulk loads never funnel point payloads through the
// coordinator.
//
// Layout (little-endian):
//
//	magic   "DRPF"                      4 bytes
//	version byte                        1 byte
//	dims    uint32                      4 bytes
//	n       uint64                      8 bytes
//	records n × (id int32, dims×int32)  n × 4(dims+1) bytes
//
// Records are fixed width, so the header determines the file size; a
// reader checks that before it allocates for a single record.
package pointsfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
)

const (
	magic     = "DRPF"
	version   = 1
	headerLen = 4 + 1 + 4 + 8
	// maxDims is the largest dimensionality a points file may hold (the
	// ingest replies carry it in one signed byte).
	maxDims = 127
)

func recSize(dims int) int { return 4 * (dims + 1) }

// Save writes pts to path. All points must share a dimensionality.
func Save(path string, pts []geom.Point) error {
	if len(pts) == 0 {
		return fmt.Errorf("pointsfile: refusing to save an empty point set")
	}
	dims := pts[0].Dims()
	if dims < 1 || dims > maxDims {
		return fmt.Errorf("pointsfile: %d-dim points, want 1..%d", dims, maxDims)
	}
	buf := make([]byte, 0, headerLen+len(pts)*recSize(dims))
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dims))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(pts)))
	for _, pt := range pts {
		if pt.Dims() != dims {
			return fmt.Errorf("pointsfile: point %d has %d dims, want %d", pt.ID, pt.Dims(), dims)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(pt.ID))
		for _, x := range pt.X {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	return os.WriteFile(path, buf, 0o644)
}

// Read loads the whole file and returns its points and dimensionality.
// A header that disagrees with the file's size, or declares dims outside
// 1..maxDims, is an error before any record buffer is allocated.
func Read(path string) ([]geom.Point, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	n, dims, err := readHeader(f, path)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, dims, nil
	}
	rs := recSize(dims)
	buf := make([]byte, n*rs)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, 0, fmt.Errorf("pointsfile: %s: reading %d records: %w", path, n, err)
	}
	pts := make([]geom.Point, n)
	// One arena for all coordinates keeps the load to two allocations.
	coords := make([]geom.Coord, n*dims)
	off := 0
	for i := range pts {
		pts[i].ID = int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		x := coords[i*dims : (i+1)*dims : (i+1)*dims]
		for d := range x {
			x[d] = geom.Coord(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		pts[i].X = x
	}
	return pts, dims, nil
}

// readHeader reads and validates the header of the open file f: the
// magic, the version, dims in 1..maxDims, and a record count that
// exactly fills the rest of the file.
func readHeader(f *os.File, path string) (n, dims int, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("pointsfile: %s: reading header: %w", path, err)
	}
	if string(hdr[:4]) != magic {
		return 0, 0, fmt.Errorf("pointsfile: %s is not a points file (bad magic)", path)
	}
	if hdr[4] != version {
		return 0, 0, fmt.Errorf("pointsfile: %s has version %d, want %d", path, hdr[4], version)
	}
	d := binary.LittleEndian.Uint32(hdr[5:9])
	if d < 1 || d > maxDims {
		return 0, 0, fmt.Errorf("pointsfile: %s declares %d dims, want 1..%d", path, d, maxDims)
	}
	dims = int(d)
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("pointsfile: %s: %w", path, err)
	}
	// Compare by division, so a hostile n cannot overflow the product.
	body, rs := uint64(st.Size()-headerLen), uint64(recSize(dims))
	count := binary.LittleEndian.Uint64(hdr[9:17])
	if body%rs != 0 || count != body/rs {
		return 0, 0, fmt.Errorf("pointsfile: %s declares %d %d-dim records, but holds %d bytes of records", path, count, dims, body)
	}
	return int(count), dims, nil
}
