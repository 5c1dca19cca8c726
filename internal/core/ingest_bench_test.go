package core

import (
	"math/rand"
	"testing"

	"repro/internal/cgm"
	"repro/internal/wire"
)

// BenchmarkBulkLoadStream measures the rank-parallel feed path on a
// loopback resident machine. Run with -benchmem: the encode path draws
// one pooled buffer per in-flight window slot and recycles it on every
// ack, so allocs/op must stay flat in the number of chunks — a per-chunk
// allocation regression shows up here as an allocs/op jump on the order
// of the chunk count.
func BenchmarkBulkLoadStream(b *testing.B) {
	const n, p = 1 << 14, 4
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, n, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mach := cgm.New(cgm.Config{P: p, Resident: true})
		tree, err := BulkLoad(mach, SliceChunks(pts, DefaultChunk), IngestConfig{})
		if err != nil {
			b.Fatal(err)
		}
		tree.Machine().Close()
	}
}

// TestEncodeChunkBufferReuse pins the zero-alloc steady state of the
// feed encode path: re-encoding into a recycled pooled buffer must not
// allocate once the buffer has grown to chunk size. This is the
// property that makes "one GetBuf per window slot" equivalent to "no
// per-chunk garbage".
func TestEncodeChunkBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, DefaultChunk, 3)
	buf := wire.GetBuf()
	defer func() { wire.PutBuf(buf) }()

	var err error
	if buf, err = encodeChunk(buf[:0], pts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = encodeChunk(buf[:0], pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state chunk encode allocates %.1f times per chunk; the pooled buffer is not being reused", allocs)
	}
}
