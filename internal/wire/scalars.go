package wire

// Scalar rows ride in more collectives than any other shape: every
// CountScan exchanges one []int per processor, phase B's demand
// all-gather is an []int row, and most resident step arguments/replies
// are a bare count or flag. Their raw layouts live here, beside the
// codec, so every binary that links wire can move them.

func init() {
	Register(Codec[bool]{
		Append: func(buf []byte, v bool) []byte {
			if v {
				return append(buf, 1)
			}
			return append(buf, 0)
		},
		Decode: func(b []byte) (bool, error) {
			r := NewReader(b)
			v := r.Bytes(1)
			if err := r.Finish(); err != nil {
				return false, err
			}
			return v[0] != 0, nil
		},
	})
	Register(Codec[int]{
		Append: func(buf []byte, v int) []byte { return AppendVarint(buf, int64(v)) },
		Decode: func(b []byte) (int, error) {
			r := NewReader(b)
			v := r.Varint()
			if err := r.Finish(); err != nil {
				return 0, err
			}
			return int(v), nil
		},
	})
	Register(Codec[int64]{
		Append: func(buf []byte, v int64) []byte { return AppendVarint(buf, v) },
		Decode: func(b []byte) (int64, error) {
			r := NewReader(b)
			v := r.Varint()
			if err := r.Finish(); err != nil {
				return 0, err
			}
			return v, nil
		},
	})
	Register(Codec[[]int]{
		Append: func(buf []byte, vs []int) []byte {
			buf = AppendUvarint(buf, uint64(len(vs)))
			for _, v := range vs {
				buf = AppendVarint(buf, int64(v))
			}
			return buf
		},
		Decode: func(b []byte) ([]int, error) {
			r := NewReader(b)
			n := r.Count(1)
			var vs []int
			if n > 0 {
				vs = make([]int, n)
				for i := range vs {
					vs[i] = int(r.Varint())
				}
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return vs, nil
		},
	})
	Register(Codec[[]int32]{
		Append: func(buf []byte, vs []int32) []byte {
			buf = AppendUvarint(buf, uint64(len(vs)))
			return AppendI32s(buf, vs)
		},
		Decode: func(b []byte) ([]int32, error) {
			r := NewReader(b)
			n := r.Count(4)
			var vs []int32
			if n > 0 {
				vs = make([]int32, n)
				r.I32s(vs)
			}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return vs, nil
		},
	})
}
