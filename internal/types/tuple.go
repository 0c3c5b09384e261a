package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tuple is a row: one datum per schema column, positionally aligned.
type Tuple []Datum

// NewTuple builds a tuple from datums.
func NewTuple(ds ...Datum) Tuple { return Tuple(ds) }

// Clone returns a deep-enough copy (datums are values; strings share bytes,
// which is safe because datums are immutable).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns the concatenation of two tuples (join output).
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// tupleHeaderBytes is the slice header MemSize charges per tuple.
const tupleHeaderBytes = 24

// MemSize approximates the in-memory footprint in bytes.
func (t Tuple) MemSize() int {
	n := tupleHeaderBytes
	for _, d := range t {
		n += d.MemSize()
	}
	return n
}

// EncodedSize returns the exact byte length of Encode's output.
func (t Tuple) EncodedSize() int {
	n := 4 // column count
	for _, d := range t {
		n += d.EncodedSize()
	}
	return n
}

// Encode appends a binary encoding of the tuple to buf and returns the
// extended slice. Layout: u32 column count, then per datum a kind byte and
// the payload (i64/f64 big-endian, bool byte, or u32-length-prefixed string).
func (t Tuple) Encode(buf []byte) []byte {
	var scratch [8]byte
	binary.BigEndian.PutUint32(scratch[:4], uint32(len(t)))
	buf = append(buf, scratch[:4]...)
	for _, d := range t {
		buf = append(buf, byte(d.kind))
		switch d.kind {
		case KindNull:
		case KindInt:
			binary.BigEndian.PutUint64(scratch[:], uint64(d.i))
			buf = append(buf, scratch[:]...)
		case KindFloat:
			binary.BigEndian.PutUint64(scratch[:], math.Float64bits(d.f))
			buf = append(buf, scratch[:]...)
		case KindBool:
			b := byte(0)
			if d.i != 0 {
				b = 1
			}
			buf = append(buf, b)
		case KindString:
			binary.BigEndian.PutUint32(scratch[:4], uint32(len(d.s)))
			buf = append(buf, scratch[:4]...)
			buf = append(buf, d.s...)
		}
	}
	return buf
}

// decodeDatum parses one encoded datum (kind byte + payload) from buf,
// returning the datum and the number of bytes consumed. Both the row path
// (DecodeTuple) and the batch path (Chunk.AppendEncoded) decode through
// here, so the two cannot drift apart.
func decodeDatum(buf []byte) (Datum, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("types: empty datum")
	}
	kind := Kind(buf[0])
	pos := 1
	switch kind {
	case KindNull:
		return Null, pos, nil
	case KindInt:
		if pos+8 > len(buf) {
			return Null, 0, fmt.Errorf("types: truncated int datum")
		}
		return NewInt(int64(binary.BigEndian.Uint64(buf[pos : pos+8]))), pos + 8, nil
	case KindFloat:
		if pos+8 > len(buf) {
			return Null, 0, fmt.Errorf("types: truncated float datum")
		}
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf[pos : pos+8]))), pos + 8, nil
	case KindBool:
		if pos+1 > len(buf) {
			return Null, 0, fmt.Errorf("types: truncated bool datum")
		}
		return NewBool(buf[pos] != 0), pos + 1, nil
	case KindString:
		if pos+4 > len(buf) {
			return Null, 0, fmt.Errorf("types: truncated string length")
		}
		l := int(binary.BigEndian.Uint32(buf[pos : pos+4]))
		pos += 4
		if l < 0 || l > len(buf)-pos {
			return Null, 0, fmt.Errorf("types: truncated string payload")
		}
		return NewString(string(buf[pos : pos+l])), pos + l, nil
	default:
		return Null, 0, fmt.Errorf("types: unknown datum kind %d", kind)
	}
}

// DecodeTuple parses one tuple from buf, returning the tuple and the number
// of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	return DecodeTupleInto(nil, buf)
}

// DecodeTupleInto is DecodeTuple decoding into dst's storage when it has
// room for the tuple's arity (allocating otherwise), so a caller can carve
// many decoded tuples from one datum slab.
func DecodeTupleInto(dst Tuple, buf []byte) (Tuple, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("types: short tuple header (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	// Every datum takes at least its kind byte, so a valid arity is bounded
	// by the remaining bytes — reject corrupt headers before allocating.
	if n < 0 || n > len(buf)-4 {
		return nil, 0, fmt.Errorf("types: tuple arity %d exceeds %d remaining bytes", uint32(n), len(buf)-4)
	}
	pos := 4
	var t Tuple
	if dst != nil && cap(dst) >= n {
		t = dst[:n:n]
	} else {
		t = make(Tuple, n)
	}
	for i := 0; i < n; i++ {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("types: truncated tuple at datum %d", i)
		}
		d, sz, err := decodeDatum(buf[pos:])
		if err != nil {
			return nil, 0, err
		}
		t[i] = d
		pos += sz
	}
	return t, pos, nil
}

// String renders the tuple for debug output.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, d := range t {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
