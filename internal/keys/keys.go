// Package keys implements normalized ("memcmp-able") sort keys: each
// tuple's sort key is encoded once into a byte string whose bytewise
// order equals the tuple order under the sort specification, so every
// subsequent key comparison is a single bytes.Compare instead of a
// field-by-field walk through typed datums. This is the standard trick
// of production sorters (DuckDB, MonetDB-style normalized keys): run
// formation and multiway merging become branch-light byte comparisons.
//
// Keys are decode-free by design: a key never needs to be turned back
// into datums. Sorters carry the originating tuple (or its index)
// alongside the key and emit the tuple, never the key.
//
// Encoding, per key column:
//
//   - a marker byte places NULLs: 0x00 (nulls first) or 0xFF (nulls
//     last) for NULL, 0x01 for any non-null value;
//   - Int64 is encoded big-endian with the sign bit flipped;
//   - Float64 is encoded with the usual IEEE-754 total-order flip
//     (negative values bit-inverted, positives get the sign bit set);
//     -0.0 is normalized to +0.0 so it compares equal, matching
//     types.Datum.Compare;
//   - Bool is one byte, 0 or 1;
//   - a NULL-typed column (types.KindNull, e.g. a projected NULL
//     literal) holds only NULLs, so it encodes as its marker byte alone;
//   - String escapes 0x00 as {0x00, 0xFF} and terminates with
//     {0x00, 0x01}, keeping the encoding prefix-free so a short string
//     sorts before its extensions and later columns cannot bleed in;
//   - descending columns invert the payload bytes (the marker is left
//     alone: NULL placement is independent of direction).
//
// The guarantee, verified by the property tests in this package:
//
//	bytes.Compare(c.Append(nil, a), c.Append(nil, b))
//	  == the comparator order of a, b under the same spec
//
// for all tuples whose key columns hold NULL or a datum of the
// column's declared kind. NaN floats are excluded from the guarantee
// (types.Datum.Compare itself has no coherent NaN order).
package keys

import (
	"fmt"
	"math"
	"strings"

	"pyro/internal/sortord"
	"pyro/internal/types"
)

// Col describes one column of a sort key.
type Col struct {
	// Ordinal is the column's position in the tuple.
	Ordinal int
	// Kind is the column's declared type. Every non-null datum at
	// Ordinal must have this kind; NULLs are always allowed.
	Kind types.Kind
	// Desc inverts the column's order (descending).
	Desc bool
	// NullsLast places NULLs after all values instead of before.
	NullsLast bool
}

// Codec encodes tuple sort keys for a fixed column specification.
// A Codec is immutable and safe for concurrent use.
type Codec struct {
	cols []Col
}

// Marker bytes. markerValue must sort strictly between the two null
// markers so NULL placement works for both settings.
const (
	markerNullFirst = 0x00
	markerValue     = 0x01
	markerNullLast  = 0xFF
)

// String escape/terminator bytes (after the leading 0x00).
const (
	strEscape     = 0xFF // 0x00 inside a string -> {0x00, 0xFF}
	strTerminator = 0x01 // end of string        -> {0x00, 0x01}
)

// New builds a codec from an explicit column spec.
func New(cols []Col) (*Codec, error) {
	for _, c := range cols {
		switch c.Kind {
		case types.KindNull, types.KindInt, types.KindFloat, types.KindString, types.KindBool:
		default:
			return nil, fmt.Errorf("keys: unsupported key column kind %v", c.Kind)
		}
		if c.Ordinal < 0 {
			return nil, fmt.Errorf("keys: negative column ordinal %d", c.Ordinal)
		}
	}
	return &Codec{cols: append([]Col(nil), cols...)}, nil
}

// NewCodec resolves a sort order against a schema with the comparator
// defaults of this engine: ascending, NULLs first — the order produced
// by types.KeySpec.Compare. Resolution is delegated to types.MakeKeySpec
// so the codec and the comparator can never disagree about ordinals.
func NewCodec(schema *types.Schema, o sortord.Order) (*Codec, error) {
	ks, err := types.MakeKeySpec(schema, o)
	if err != nil {
		return nil, err
	}
	return FromKeySpec(ks)
}

// FromKeySpec builds a codec from a resolved KeySpec (which carries the
// column kinds), with comparator defaults (ascending, NULLs first).
func FromKeySpec(ks types.KeySpec) (*Codec, error) {
	if len(ks.Kinds) != len(ks.Ordinals) {
		return nil, fmt.Errorf("keys: KeySpec has no kinds (built before MakeKeySpec recorded them?)")
	}
	cols := make([]Col, len(ks.Ordinals))
	for i, ord := range ks.Ordinals {
		cols[i] = Col{Ordinal: ord, Kind: ks.Kinds[i]}
	}
	return New(cols)
}

// Len returns the number of key columns.
func (c *Codec) Len() int { return len(c.cols) }

// Suffix returns a codec over the key columns from position k on — the
// suffix order of a full-key codec. Sorters that keep full-key encodings
// and need suffix-only comparisons should prefer PrefixLen: slicing the
// full key past the shared prefix compares the same bytes this codec
// would produce, without a second encode.
func (c *Codec) Suffix(k int) *Codec {
	if k < 0 || k > len(c.cols) {
		panic(fmt.Sprintf("keys: suffix %d out of range [0,%d]", k, len(c.cols)))
	}
	return &Codec{cols: c.cols[k:]}
}

// PrefixLen returns the number of bytes Append writes for the first k key
// columns of t — the byte offset in t's full key at which the remaining
// columns' encoding starts. Inside one MRS partial-sort segment every
// tuple agrees on the first k (= |given|) column values, so every segment
// key shares its first PrefixLen bytes: suffix comparisons may slice past
// them and radix partitioning may seed at that depth. The length is
// computed arithmetically, without encoding.
func (c *Codec) PrefixLen(t types.Tuple, k int) int {
	if k < 0 || k > len(c.cols) {
		panic(fmt.Sprintf("keys: prefix %d out of range [0,%d]", k, len(c.cols)))
	}
	n := 0
	for _, col := range c.cols[:k] {
		d := t[col.Ordinal]
		n++ // marker byte, NULL or value
		if d.IsNull() {
			continue
		}
		switch col.Kind {
		case types.KindInt, types.KindFloat:
			n += 8
		case types.KindBool:
			n++
		case types.KindString:
			s := d.Str()
			// Each NUL escapes to two bytes; the terminator adds two.
			n += len(s) + strings.Count(s, "\x00") + 2
		}
	}
	return n
}

// Append encodes t's sort key and appends it to dst, returning the
// extended slice. It panics if a non-null key datum's kind differs from
// the column's declared kind: schemas are engine-constructed, so a
// mismatch is a bug, and encoding it anyway would silently mis-sort.
func (c *Codec) Append(dst []byte, t types.Tuple) []byte {
	for _, col := range c.cols {
		d := t[col.Ordinal]
		if d.IsNull() {
			if col.NullsLast {
				dst = append(dst, markerNullLast)
			} else {
				dst = append(dst, markerNullFirst)
			}
			continue
		}
		if d.Kind() != col.Kind {
			panic(fmt.Sprintf("keys: datum kind %v at ordinal %d, column declared %v",
				d.Kind(), col.Ordinal, col.Kind))
		}
		dst = append(dst, markerValue)
		start := len(dst)
		switch col.Kind {
		case types.KindInt:
			dst = appendUint64(dst, uint64(d.Int())^(1<<63))
		case types.KindFloat:
			f := d.Float()
			if f == 0 {
				f = 0 // normalize -0.0 to +0.0: Datum.Compare treats them as equal
			}
			bits := math.Float64bits(f)
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			dst = appendUint64(dst, bits)
		case types.KindBool:
			b := byte(0)
			if d.Bool() {
				b = 1
			}
			dst = append(dst, b)
		case types.KindString:
			s := d.Str()
			// Fast path: no NUL bytes (the overwhelmingly common case) —
			// one bulk append instead of a byte-at-a-time escape loop.
			for {
				i := strings.IndexByte(s, 0x00)
				if i < 0 {
					dst = append(dst, s...)
					break
				}
				dst = append(dst, s[:i]...)
				dst = append(dst, 0x00, strEscape)
				s = s[i+1:]
			}
			dst = append(dst, 0x00, strTerminator)
		}
		if col.Desc {
			for i := start; i < len(dst); i++ {
				dst[i] = ^dst[i]
			}
		}
	}
	return dst
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
