package wire

import (
	"fmt"
	"reflect"
	"sync"
)

// Codec is the raw wire behavior of one payload type: an append-style
// encoder and a whole-block decoder. Append must extend buf in place
// (standard append discipline); Decode receives exactly the bytes Append
// produced and must return an error — never panic — on truncated or
// corrupt input (the Reader's sticky-error discipline gives this for
// free).
type Codec[T any] struct {
	Append func(buf []byte, v T) []byte
	Decode func(b []byte) (T, error)
}

// The registry maps a payload type to its type-erased codec. Registration
// happens in package init functions (core registers its superstep payload
// types; wire itself registers []byte), so lookups vastly outnumber
// writes — a copy-on-write map keeps the hot path lock-free.
var (
	regMu sync.Mutex
	reg   sync.Map // reflect.Type -> Codec[T] (as any)
)

// Register binds the raw codec for payload type T. Registering a type
// twice panics: two layouts for one type would desynchronize the cluster.
// Call it from an init function of the package that owns T, so every
// binary of the cluster (coordinator and workers) agrees on the set of
// raw-coded types by construction.
func Register[T any](c Codec[T]) {
	regMu.Lock()
	defer regMu.Unlock()
	t := reflect.TypeOf((*T)(nil)).Elem()
	if _, dup := reg.Load(t); dup {
		panic(fmt.Sprintf("wire: codec for %v registered twice", t))
	}
	reg.Store(t, c)
}

// Lookup resolves the registered codec for T.
func Lookup[T any]() (Codec[T], bool) {
	v, ok := reg.Load(reflect.TypeOf((*T)(nil)).Elem())
	if !ok {
		return Codec[T]{}, false
	}
	return v.(Codec[T]), true
}

// Registered reports whether T has a raw codec (without asserting it).
func Registered[T any]() bool {
	_, ok := reg.Load(reflect.TypeOf((*T)(nil)).Elem())
	return ok
}

// Every encoded block leads with the one-byte tag 'R', so the decode
// side refuses a block from any other encoding with a diagnostic instead
// of misreading it.
const tagRaw byte = 'R'

// Encode appends the tagged raw encoding of v to buf. A type without a
// registered codec cannot cross the wire: Encode returns an error naming
// it. Combine with GetBuf/PutBuf to keep the per-superstep encode path
// allocation-free in steady state.
func Encode[T any](buf []byte, v T) ([]byte, error) {
	c, ok := Lookup[T]()
	if !ok {
		return buf, fmt.Errorf("wire: no codec registered for %v", reflect.TypeOf((*T)(nil)).Elem())
	}
	start := len(buf)
	buf = c.Append(append(buf, tagRaw), v)
	counters.rawEncBlocks.Add(1)
	counters.rawEncBytes.Add(int64(len(buf) - start))
	return buf, nil
}

// Decode decodes one Encode-produced block.
func Decode[T any](b []byte) (T, error) {
	var zero T
	if len(b) == 0 {
		return zero, fmt.Errorf("wire: empty block")
	}
	if b[0] != tagRaw {
		return zero, fmt.Errorf("wire: unknown block tag 0x%02x", b[0])
	}
	c, ok := Lookup[T]()
	if !ok {
		return zero, fmt.Errorf("wire: raw block for %v, which this binary has no codec for (version skew?)",
			reflect.TypeOf((*T)(nil)).Elem())
	}
	v, err := c.Decode(b[1:])
	if err == nil {
		counters.rawDecBlocks.Add(1)
	}
	return v, err
}

func init() {
	// []byte rows are the machine's barrier payloads (and any other
	// opaque byte rows): the raw layout is the bytes themselves. The
	// decoded value views the block.
	Register(Codec[[]byte]{
		Append: func(buf []byte, v []byte) []byte { return append(buf, v...) },
		Decode: func(b []byte) ([]byte, error) {
			if len(b) == 0 {
				return nil, nil
			}
			return b[:len(b):len(b)], nil
		},
	})
}
