package cgm

import (
	"slices"
	"unsafe"
)

// Arena is one rank's run-scoped allocator: everything an SPMD program
// needs during a machine run that does not leave the run — exchange rows,
// collective scratch, per-run program state — is carved from it instead
// of the heap, so a warm run allocates only what it returns.
//
// Lifetime rule: memory handed out during a run stays valid until the
// machine's NEXT Run begins, and is never recycled inside a run. That is
// what makes it safe on the loopback transport, where rows travel by
// reference and a receiver keeps reading a sender's row long after the
// exchange returned: a buffer is reused only after every rank has left
// the run it was handed out in (Run's wg.Wait), and a caller may still
// read a run's arena-backed results between runs. Nothing that must
// outlive the next run may alias an arena.
//
// An arena is a set of typed bump slabs, one per element type requested
// (so the garbage collector sees every pointer it holds). It starts
// empty, grows to the working set of the runs actually executed, and
// gives capacity back when no run of its retention window (arenaWindow)
// came near needing it. What a run wrote stays referenced until the arena
// is released — by the next run's start, or earlier by
// Machine.ReleaseArenas when the caller is done with the run's results —
// so a run that moved large rows does not pin them through a few stale
// slice headers. A nil *Arena is valid and allocates from the heap — the
// form construct-time and worker-side callers of arena-taking functions
// use.
//
// An arena belongs to one rank: only that rank's processor goroutine may
// allocate from it during a run.
type Arena struct {
	slabs []arenaSlab
	runs  int // resets since the retention window last turned over
}

// arenaSlab is the type-erased view of one slab[T].
type arenaSlab interface {
	release()
	reset(turn bool)
	bytes() int
}

// A slab is trimmed when it is both larger than arenaKeep elements and
// more than arenaSlack times the most any run of the retention window
// took from it. The window is two buckets of arenaWindow runs — the one
// filling and the one before it — so a need is remembered for between
// arenaWindow and 2·arenaWindow runs: long enough that a shape which
// recurs every few dozen runs (a serving machine's one report batch among
// count-only ones) keeps its slabs, short enough that one outsized batch
// does not pin its working set on a machine that lives for hours.
const (
	arenaKeep   = 64
	arenaSlack  = 4
	arenaWindow = 64
)

// slab is the bump allocator of one element type. buf is zero beyond
// used, and — once released — everywhere.
type slab[T any] struct {
	buf      []T  // current chunk, len == cap
	used     int  // elements of buf handed out this run
	spilt    int  // elements handed out of chunks this run outgrew
	cur      int  // most one run took in the window's filling bucket
	prev     int  // ... and in the bucket before it
	released bool // buf[:used] has been zeroed since the last hand-out
}

// peak is the most one run of the retention window took from the slab.
func (s *slab[T]) peak() int { return max(s.cur, s.prev) }

// release zeroes what the run wrote, dropping every reference it holds
// (outgrown chunks are reachable only through those references).
func (s *slab[T]) release() {
	if !s.released {
		clear(s.buf[:s.used])
		s.released = true
	}
}

// reset recycles the slab for the next run; turn closes the window's
// filling bucket.
func (s *slab[T]) reset(turn bool) {
	s.release()
	need := s.spilt + s.used
	s.cur = max(s.cur, need)
	if need > len(s.buf) || (len(s.buf) > arenaKeep && len(s.buf) > arenaSlack*s.peak()) {
		s.buf = nil // the next run's first request sizes one chunk to peak
	}
	if turn {
		s.prev, s.cur = s.cur, 0
	}
	s.used, s.spilt = 0, 0
}

func (s *slab[T]) bytes() int {
	var zero T
	return len(s.buf) * int(unsafe.Sizeof(zero))
}

// release drops every reference the last run left in the arena; the
// memory itself stays for the next run.
func (a *Arena) release() {
	for _, s := range a.slabs {
		s.release()
	}
}

// reset recycles the arena for the next run.
func (a *Arena) reset() {
	a.runs++
	turn := a.runs == arenaWindow
	if turn {
		a.runs = 0
	}
	for _, s := range a.slabs {
		s.reset(turn)
	}
}

// bytes reports the capacity the arena currently retains.
func (a *Arena) bytes() int {
	total := 0
	for _, s := range a.slabs {
		total += s.bytes()
	}
	return total
}

// slabOf finds (or creates) the arena's slab for element type T. A search
// run touches a couple of dozen types, so a linear scan of type
// assertions is cheaper than hashing a reflect.Type.
func slabOf[T any](a *Arena) *slab[T] {
	for _, s := range a.slabs {
		if t, ok := s.(*slab[T]); ok {
			return t
		}
	}
	t := &slab[T]{}
	a.slabs = append(a.slabs, t)
	return t
}

// Alloc returns a zeroed []T of length and capacity n from the arena
// (from the heap when a is nil).
func Alloc[T any](a *Arena, n int) []T {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]T, n)
	}
	s := slabOf[T](a)
	if s.used+n > len(s.buf) {
		// Outgrown: earlier hand-outs keep the old chunk alive; nothing is
		// recycled inside a run.
		s.spilt += s.used
		s.buf = make([]T, max(2*len(s.buf), n, s.peak()))
		s.used = 0
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	s.released = false
	return out
}

// AllocOne returns a pointer to an arena-held copy of v.
func AllocOne[T any](a *Arena, v T) *T {
	p := &Alloc[T](a, 1)[0]
	*p = v
	return p
}

// Grow returns s with room for n more elements. A full arena-backed slice
// moves to a doubled arena allocation (the outgrown one stays where it is
// until the arena resets), so a list that grows during a run costs no heap
// allocation once the arena is warm.
func Grow[T any](a *Arena, s []T, n int) []T {
	if a == nil {
		return slices.Grow(s, n)
	}
	if need := len(s) + n; need > cap(s) {
		grown := Alloc[T](a, max(2*cap(s), need, 8))
		s = grown[:copy(grown, s)]
	}
	return s
}

// Append is append for arena-backed slices.
func Append[T any](a *Arena, s []T, vs ...T) []T {
	return append(Grow(a, s, len(vs)), vs...)
}
