package exec

import (
	"fmt"
	"reflect"

	"repro/internal/wire"
)

// The typed wrappers below are how programs define steps without touching
// bytes: arguments, replies and exchanged rows are wire-encoded at the
// seam (the raw layout of the type's registered wire.Codec; a type
// without one is an encoding error), with element counts taken from the
// typed slices — so a resident exchange accounts exactly what a
// coordinator-side exchange of the same rows would.

// Marshal encodes a step argument or reply. The encoding is retained by
// the caller (frames, replies), so it gets its own buffer rather than a
// pooled one. The types are the program's own, so an encoding failure is
// a programming error.
func Marshal[T any](v T) []byte {
	b, err := wire.Encode(nil, v)
	if err != nil {
		panic(fmt.Sprintf("exec: encoding %T: %v", v, err))
	}
	return b
}

// Unmarshal decodes a Marshal-encoded value.
func Unmarshal[T any](b []byte) (T, error) {
	return wire.Decode[T](b)
}

// Pure wraps a typed step function. S is the program's state type as
// created by Program.New (asserted, so a mismatch fails loudly).
func Pure[S any, A any, R any](f func(st S, c *Ctx, args A) (R, error)) Step {
	return func(c *Ctx, raw []byte) ([]byte, error) {
		args, err := Unmarshal[A](raw)
		if err != nil {
			return nil, fmt.Errorf("exec: decoding step args: %w", err)
		}
		r, err := f(c.State.(S), c, args)
		if err != nil {
			return nil, err
		}
		return Marshal(r), nil
	}
}

// Emitter wraps a typed emit function: it returns the per-destination rows
// (len == P). The wrapper encodes every non-self destination into one
// grown buffer (each block a capacity-clipped view), counts elements per
// destination, and keeps the self row typed. The buffer is not pooled: the worker routes the blocks
// to its peers after the emit returns, so their lifetime is the
// superstep's, not the wrapper's.
func Emitter[S any, A any, T any](f func(st S, c *Ctx, args A) ([][]T, error)) Emit {
	return func(c *Ctx, raw []byte) (*Outbox, error) {
		args, err := Unmarshal[A](raw)
		if err != nil {
			return nil, fmt.Errorf("exec: decoding emit args: %w", err)
		}
		rows, err := f(c.State.(S), c, args)
		if err != nil {
			return nil, err
		}
		if len(rows) != c.P {
			return nil, fmt.Errorf("exec: emit produced %d destinations for %d ranks", len(rows), c.P)
		}
		out := &Outbox{
			Blocks: make([][]byte, c.P),
			Counts: make([]int, c.P),
			Self:   rows[c.Rank],
			Type:   reflect.TypeOf((*T)(nil)).Elem().String(),
		}
		buf := make([]byte, 0, 1024)
		for j, part := range rows {
			out.Counts[j] = len(part)
			if j == c.Rank {
				continue
			}
			start := len(buf)
			buf, err = wire.Encode(buf, part)
			if err != nil {
				return nil, fmt.Errorf("exec: encoding emit block for rank %d: %w", j, err)
			}
			out.Blocks[j] = buf[start:len(buf):len(buf)]
		}
		return out, nil
	}
}

// Collector wraps a typed collect function: the wrapper decodes each
// source's block into []T (taking the rank's own rows from the typed self
// payload), counts the received elements, and encodes the reply.
func Collector[S any, A any, T any, R any](f func(st S, c *Ctx, args A, in [][]T) (R, error)) Collect {
	return func(c *Ctx, inbox *Inbox, raw []byte) ([]byte, int, error) {
		args, err := Unmarshal[A](raw)
		if err != nil {
			return nil, 0, fmt.Errorf("exec: decoding collect args: %w", err)
		}
		in := make([][]T, len(inbox.Blocks))
		recv := 0
		for j, b := range inbox.Blocks {
			if j == c.Rank {
				part, ok := inbox.Self.([]T)
				if !ok {
					return nil, 0, fmt.Errorf("exec: self payload is %T, collect wants []%s",
						inbox.Self, reflect.TypeOf((*T)(nil)).Elem())
				}
				in[j] = part
				recv += len(part)
				continue
			}
			if b == nil {
				continue
			}
			part, err := wire.Decode[[]T](b)
			if err != nil {
				return nil, 0, fmt.Errorf("exec: decoding block from rank %d: %w", j, err)
			}
			in[j] = part
			recv += len(part)
		}
		r, err := f(c.State.(S), c, args, in)
		if err != nil {
			return nil, 0, err
		}
		return Marshal(r), recv, nil
	}
}
