package keys

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"pyro/internal/types"
)

// fuzzTuple decodes one tuple for the fuzz schema from the byte stream:
// each column consumes a control byte (null / kind-specific value shape)
// and, for values, payload bytes. The decoder is total — any input yields
// a valid tuple — so the fuzzer explores the full encoding space.
func fuzzTuple(data []byte, cols []Col) (types.Tuple, []byte) {
	tup := make(types.Tuple, len(cols))
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	for i, col := range cols {
		if next()%5 == 0 {
			tup[i] = types.Null
			continue
		}
		switch col.Kind {
		case types.KindInt:
			var raw [8]byte
			copy(raw[:], take(8))
			tup[i] = types.NewInt(int64(binary.BigEndian.Uint64(raw[:])))
		case types.KindFloat:
			var raw [8]byte
			copy(raw[:], take(8))
			f := math.Float64frombits(binary.BigEndian.Uint64(raw[:]))
			if math.IsNaN(f) {
				// Datum.Compare has no coherent NaN order; the codec's
				// guarantee explicitly excludes it.
				f = 0
			}
			tup[i] = types.NewFloat(f)
		case types.KindBool:
			tup[i] = types.NewBool(next()%2 == 0)
		case types.KindString:
			tup[i] = types.NewString(string(take(int(next()) % 9)))
		}
	}
	return tup, data
}

// FuzzCodecAgreesWithComparator is the package guarantee under fuzzing:
// for any pair of tuples and any column spec drawn from the input bytes,
// bytes.Compare over the encoded keys equals the reference comparator
// (NULL placement, typed compare, direction) — and PrefixLen splits the
// full key exactly where the suffix codec's encoding begins.
func FuzzCodecAgreesWithComparator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xFF, 0x00, 0x42, 0x03, 'a', 0x00, 'b'})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Add(bytes.Repeat([]byte{0xFF, 0x80, 0x00}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		ctl := byte(0)
		if len(data) > 0 {
			ctl, data = data[0], data[1:]
		}
		ncols := 1 + int(ctl&0x03)
		cols := make([]Col, ncols)
		for i := range cols {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			cols[i] = Col{
				Ordinal:   i,
				Kind:      allKinds[int(b)%len(allKinds)],
				Desc:      b&0x10 != 0,
				NullsLast: b&0x20 != 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		var a, b types.Tuple
		a, data = fuzzTuple(data, cols)
		b, data = fuzzTuple(data, cols)
		// Force column-level ties on a prefix so deeper columns decide.
		for i := range cols {
			if len(data) > 0 && data[0]%3 == 0 {
				b[i] = a[i]
			}
			if len(data) > 0 {
				data = data[1:]
			}
		}

		ka := c.Append(nil, a)
		kb := c.Append(nil, b)
		got := sign(bytes.Compare(ka, kb))
		want := sign(refCompare(cols, a, b))
		if got != want {
			t.Fatalf("spec %+v:\n a=%v key=%x\n b=%v key=%x\n bytes.Compare=%d, comparator=%d",
				cols, a, ka, b, kb, got, want)
		}
		for k := 0; k <= ncols; k++ {
			n := c.PrefixLen(a, k)
			suffix := c.Suffix(k).Append(nil, a)
			if n+len(suffix) != len(ka) || !bytes.Equal(ka[n:], suffix) {
				t.Fatalf("PrefixLen(%d) = %d does not split key %x before suffix %x", k, n, ka, suffix)
			}
		}
	})
}
