package pointsfile

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

func samplePoints() []geom.Point {
	return []geom.Point{
		{ID: 1, X: []geom.Coord{3, -4}},
		{ID: 2, X: []geom.Coord{0, 9}},
		{ID: 7, X: []geom.Coord{-100, 100}},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.drpf")
	want := samplePoints()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, dims, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if dims != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %v (%d dims), want %v", got, dims, want)
	}
}

func TestSaveRefusesBadSets(t *testing.T) {
	dir := t.TempDir()
	if err := Save(filepath.Join(dir, "empty"), nil); err == nil {
		t.Error("empty set saved")
	}
	mixed := []geom.Point{{ID: 0, X: []geom.Coord{1}}, {ID: 1, X: []geom.Coord{1, 2}}}
	if err := Save(filepath.Join(dir, "mixed"), mixed); err == nil {
		t.Error("mixed dimensionalities saved")
	}
	wide := []geom.Point{{ID: 0, X: make([]geom.Coord, maxDims+1)}}
	if err := Save(filepath.Join(dir, "wide"), wide); err == nil {
		t.Errorf("%d-dim point saved", maxDims+1)
	}
}

// writeFile writes raw bytes as a points file and returns its path.
func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.drpf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// saved returns the bytes Save writes for samplePoints.
func saved(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.drpf")
	if err := Save(path, samplePoints()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// header builds a header claiming n records of the given dims.
func header(dims uint32, n uint64) []byte {
	b := append([]byte(magic), version)
	b = binary.LittleEndian.AppendUint32(b, dims)
	return binary.LittleEndian.AppendUint64(b, n)
}

func TestTruncatedFileRefused(t *testing.T) {
	data := saved(t)
	for _, cut := range []int{0, 3, headerLen - 1, headerLen + 1, len(data) - 1} {
		if _, _, err := Read(writeFile(t, data[:cut])); err == nil {
			t.Errorf("file cut to %d of %d bytes read without error", cut, len(data))
		}
	}
}

func TestTrailingBytesRefused(t *testing.T) {
	data := append(saved(t), 0, 0, 0, 0)
	if _, _, err := Read(writeFile(t, data)); err == nil {
		t.Fatal("file with trailing bytes read without error")
	}
}

// TestHostileHeadersRefused: a header's n and dims must agree with the
// file's size before anything is allocated. The first case is 17 bytes
// claiming 2^36 one-dimensional records: trusting it would ask for
// 512 GiB.
func TestHostileHeadersRefused(t *testing.T) {
	cases := map[string][]byte{
		"2^36 records, no body":    header(1, 1<<36),
		"n overflows n·recSize":    append(header(1, 1<<62), make([]byte, 8)...),
		"max uint64 records":       append(header(2, ^uint64(0)), make([]byte, 12)...),
		"zero dims":                header(0, 0),
		"200 dims":                 append(header(200, 1), make([]byte, 4*201)...),
		"2^32-1 dims":              header(^uint32(0), 1),
		"bad magic":                append([]byte("XXXX"), header(1, 0)[4:]...),
		"one record short of n=2":  append(header(1, 2), make([]byte, 8)...),
		"body not a whole records": append(header(2, 1), make([]byte, 13)...),
	}
	for name, data := range cases {
		_, _, err := Read(writeFile(t, data))
		if err == nil {
			t.Errorf("%s: read without error", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "pointsfile: ") {
			t.Errorf("%s: error %q does not name the package", name, err)
		}
	}
}

func TestEmptyBodyReadsNothing(t *testing.T) {
	pts, dims, err := Read(writeFile(t, header(3, 0)))
	if err != nil || len(pts) != 0 || dims != 3 {
		t.Fatalf("Read = %v, %d, %v; want no points of 3 dims", pts, dims, err)
	}
}
