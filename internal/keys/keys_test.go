package keys

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/types"
)

// refCompare is the comparator-semantics reference the encoding must agree
// with: per column, NULL placement by flag, then types.Datum.Compare,
// inverted for descending columns.
func refCompare(cols []Col, a, b types.Tuple) int {
	for _, col := range cols {
		da, db := a[col.Ordinal], b[col.Ordinal]
		an, bn := da.IsNull(), db.IsNull()
		if an || bn {
			switch {
			case an && bn:
				continue
			case an:
				if col.NullsLast {
					return 1
				}
				return -1
			default:
				if col.NullsLast {
					return -1
				}
				return 1
			}
		}
		c := da.Compare(db)
		if col.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// randDatum returns a random datum of kind k, NULL with probability ~1/5.
// Values are drawn from small domains so collisions (the equality case)
// actually occur.
func randDatum(r *rand.Rand, k types.Kind) types.Datum {
	if r.Intn(5) == 0 {
		return types.Null
	}
	switch k {
	case types.KindInt:
		switch r.Intn(4) {
		case 0:
			return types.NewInt(int64(r.Intn(5)) - 2)
		case 1:
			return types.NewInt(math.MaxInt64 - int64(r.Intn(3)))
		case 2:
			return types.NewInt(math.MinInt64 + int64(r.Intn(3)))
		default:
			return types.NewInt(r.Int63() - r.Int63())
		}
	case types.KindFloat:
		switch r.Intn(5) {
		case 0:
			return types.NewFloat(0)
		case 1:
			return types.NewFloat(math.Copysign(0, -1)) // -0.0: must equal +0.0
		case 2:
			return types.NewFloat(math.Inf(1 - 2*r.Intn(2)))
		case 3:
			return types.NewFloat(float64(r.Intn(7)-3) / 2)
		default:
			return types.NewFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		}
	case types.KindBool:
		return types.NewBool(r.Intn(2) == 0)
	case types.KindString:
		// Adversarial alphabet: NULs (escaping), 0xFF (escape byte),
		// shared prefixes (terminator ordering).
		alphabet := []byte{0x00, 0x01, 'a', 'b', 0xFE, 0xFF}
		n := r.Intn(6)
		s := make([]byte, n)
		for i := range s {
			s[i] = alphabet[r.Intn(len(alphabet))]
		}
		return types.NewString(string(s))
	}
	return types.Null
}

var allKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool}

// TestEncodingAgreesWithComparator is the core property: for randomized
// multi-column specs across all supported types, directions and null
// placements, bytes.Compare over encoded keys equals the reference
// comparator.
func TestEncodingAgreesWithComparator(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		ncols := 1 + r.Intn(4)
		cols := make([]Col, ncols)
		for i := range cols {
			cols[i] = Col{
				Ordinal:   i,
				Kind:      allKinds[r.Intn(len(allKinds))],
				Desc:      r.Intn(2) == 0,
				NullsLast: r.Intn(2) == 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		a := make(types.Tuple, ncols)
		b := make(types.Tuple, ncols)
		for i, col := range cols {
			a[i] = randDatum(r, col.Kind)
			b[i] = randDatum(r, col.Kind)
			if r.Intn(3) == 0 {
				b[i] = a[i] // force ties on a prefix of the key
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
	}
}

// TestDefaultCodecMatchesKeySpec checks the engine wiring: a codec built
// from a schema+order (or from the resolved KeySpec) reproduces
// types.KeySpec.Compare exactly — that is the contract the sort operators
// rely on when swapping comparator calls for byte compares.
func TestDefaultCodecMatchesKeySpec(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "b", Kind: types.KindBool},
	)
	order := sortord.New("s", "i", "b", "f")
	ks := types.MustKeySpec(schema, order)

	fromOrder, err := NewCodec(schema, order)
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := FromKeySpec(ks)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(7))
	gen := func() types.Tuple {
		return types.NewTuple(
			randDatum(r, types.KindInt),
			randDatum(r, types.KindFloat),
			randDatum(r, types.KindString),
			randDatum(r, types.KindBool),
		)
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := gen(), gen()
		want := sign(ks.Compare(a, b))
		for _, c := range []*Codec{fromOrder, fromSpec} {
			got := sign(bytes.Compare(c.Append(nil, a), c.Append(nil, b)))
			if got != want {
				t.Fatalf("a=%v b=%v: key compare %d, KeySpec.Compare %d", a, b, got, want)
			}
		}
	}
}

// TestSuffixCodec checks that Suffix(k) encodes exactly the trailing
// columns: the key of the suffix codec equals the tail of the full key
// region-wise (by comparing order, not layout).
func TestSuffixCodec(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
		types.Column{Name: "c", Kind: types.KindFloat},
	)
	full, err := NewCodec(schema, sortord.New("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	suffix := full.Suffix(1)
	if suffix.Len() != 2 {
		t.Fatalf("suffix len = %d, want 2", suffix.Len())
	}
	ks := types.MustKeySpec(schema, sortord.New("a", "b", "c"))
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a := types.NewTuple(types.NewInt(1), randDatum(r, types.KindString), randDatum(r, types.KindFloat))
		b := types.NewTuple(types.NewInt(1), randDatum(r, types.KindString), randDatum(r, types.KindFloat))
		got := sign(bytes.Compare(suffix.Append(nil, a), suffix.Append(nil, b)))
		want := sign(ks.CompareSuffix(a, b, 1))
		if got != want {
			t.Fatalf("a=%v b=%v: suffix key compare %d, CompareSuffix %d", a, b, got, want)
		}
	}
}

// TestPrefixLen: the arithmetic prefix length must equal the bytes Append
// actually writes for the prefix columns — i.e. the full key is exactly
// the k-column prefix encoding followed by the Suffix(k) encoding, and
// PrefixLen is the split point. This is the contract MRS relies on when it
// slices full keys past a segment's shared `given` prefix.
func TestPrefixLen(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		ncols := 1 + r.Intn(4)
		cols := make([]Col, ncols)
		for i := range cols {
			cols[i] = Col{
				Ordinal:   i,
				Kind:      allKinds[r.Intn(len(allKinds))],
				Desc:      r.Intn(2) == 0,
				NullsLast: r.Intn(2) == 0,
			}
		}
		c, err := New(cols)
		if err != nil {
			t.Fatal(err)
		}
		tup := make(types.Tuple, ncols)
		for i, col := range cols {
			tup[i] = randDatum(r, col.Kind)
		}
		full := c.Append(nil, tup)
		for k := 0; k <= ncols; k++ {
			n := c.PrefixLen(tup, k)
			suffix := c.Suffix(k).Append(nil, tup)
			if n+len(suffix) != len(full) || !bytes.Equal(full[n:], suffix) {
				t.Fatalf("spec %+v tuple %v: PrefixLen(%d) = %d, but full key %x splits into suffix %x",
					cols, tup, k, n, full, suffix)
			}
		}
	}
	c, _ := New([]Col{{Ordinal: 0, Kind: types.KindInt}})
	for _, bad := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrefixLen(%d) out of range should panic", bad)
				}
			}()
			c.PrefixLen(types.NewTuple(types.NewInt(1)), bad)
		}()
	}
}

// TestPrefixFreedom: a key is never a strict prefix of another key under
// the same codec when the keys differ — otherwise sort order would depend
// on what follows the key in a longer buffer.
func TestPrefixFreedom(t *testing.T) {
	cols := []Col{{Ordinal: 0, Kind: types.KindString}}
	c, err := New(cols)
	if err != nil {
		t.Fatal(err)
	}
	vals := []string{"", "a", "ab", "a\x00", "a\x00b", "a\xff", "\x00", "\xff"}
	for _, va := range vals {
		for _, vb := range vals {
			ka := c.Append(nil, types.NewTuple(types.NewString(va)))
			kb := c.Append(nil, types.NewTuple(types.NewString(vb)))
			if va != vb && (bytes.HasPrefix(ka, kb) || bytes.HasPrefix(kb, ka)) {
				t.Fatalf("keys of %q and %q are prefix-related: %x / %x", va, vb, ka, kb)
			}
		}
	}
}

func TestCodecValidation(t *testing.T) {
	if _, err := New([]Col{{Ordinal: -1, Kind: types.KindInt}}); err == nil {
		t.Fatal("negative ordinal should be rejected")
	}
	if _, err := FromKeySpec(types.KeySpec{Ordinals: []int{0}}); err == nil {
		t.Fatal("KeySpec without kinds should be rejected")
	}
	schema := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	if _, err := NewCodec(schema, sortord.New("zz")); err == nil {
		t.Fatal("unknown attribute should be rejected")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	c, err := New([]Col{{Ordinal: 0, Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a string datum into an int key column should panic")
		}
	}()
	c.Append(nil, types.NewTuple(types.NewString("oops")))
}

// TestNullKindColumn: a NULL-typed key column (types.KindNull — a
// projected NULL literal) holds only NULLs, so it encodes as its marker
// byte alone, honours NullsLast, contributes one byte to PrefixLen, and
// leaves the order to the other key columns.
func TestNullKindColumn(t *testing.T) {
	c, err := New([]Col{{Ordinal: 0, Kind: types.KindNull}, {Ordinal: 1, Kind: types.KindInt}})
	if err != nil {
		t.Fatalf("KindNull key column rejected: %v", err)
	}
	a := types.NewTuple(types.Null, types.NewInt(1))
	b := types.NewTuple(types.Null, types.NewInt(2))
	ka, kb := c.Append(nil, a), c.Append(nil, b)
	if ka[0] != markerNullFirst || len(ka) != 1+9 {
		t.Fatalf("key %x: want the NULL marker followed by one int column", ka)
	}
	if bytes.Compare(ka, kb) >= 0 {
		t.Fatalf("keys %x / %x do not order by the int column", ka, kb)
	}
	if n := c.PrefixLen(a, 1); n != 1 {
		t.Fatalf("PrefixLen over the NULL column = %d, want 1", n)
	}
	last, err := New([]Col{{Ordinal: 0, Kind: types.KindNull, NullsLast: true, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	if k := last.Append(nil, a); !bytes.Equal(k, []byte{markerNullLast}) {
		t.Fatalf("nulls-last key = %x, want %x", k, []byte{markerNullLast})
	}
	ks := types.MustKeySpec(types.NewSchema(
		types.Column{Name: "n", Kind: types.KindNull},
		types.Column{Name: "k", Kind: types.KindInt},
	), sortord.New("n", "k"))
	if _, err := FromKeySpec(ks); err != nil {
		t.Fatalf("FromKeySpec over a NULL-typed column: %v", err)
	}
}
