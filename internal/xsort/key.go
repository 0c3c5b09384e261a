package xsort

import (
	"bytes"
	"sort"

	"pyro/internal/keys"
	"pyro/internal/types"
)

// keyed is one buffered row in page format: a record in the keyer's byte
// arena holding the row's normalized sort key (an order-preserving byte
// string, see package keys) followed by its Tuple.Encode bytes. key and
// row are the two adjacent halves of that record. Keys are compared, never
// decoded; row is what gets spilled (copied onto a run page as is) or
// decoded into an owned tuple when the row is emitted.
type keyed struct {
	key []byte
	row []byte
}

// size is the row's charge against the sort's memory budget: the bytes it
// occupies on a run page (Tuple.EncodedSize). The key bytes and the
// fixed-size entry are not charged, so M blocks of sort memory hold the
// rows that fit in M blocks on disk — the cost model's definition of a
// sort that fits.
func (kt keyed) size() int64 { return int64(len(kt.row)) }

// decodeSlabRows is how many emitted rows share one datum slab.
const decodeSlabRows = 256

// rowDecoder turns records back into owned tuples as a sort emits them.
// Their datums are carved from a shared slab, so emitting N rows costs
// about N/decodeSlabRows slab allocations plus the rows' strings. The slab
// is not pooled: an emitted tuple keeps its slab alive for as long as the
// consumer holds it.
type rowDecoder struct {
	ncols int
	slab  []types.Datum
}

// decode returns kt's row as an owned tuple. left is how many rows the
// caller has yet to emit from the same buffer, this one included; a new
// slab holds no more rows than that, so a small sort allocates no more
// than its rows.
func (d *rowDecoder) decode(kt keyed, left int) (types.Tuple, error) {
	if len(d.slab) < d.ncols {
		d.slab = make([]types.Datum, d.ncols*min(left, decodeSlabRows))
	}
	t, _, err := types.DecodeTupleInto(d.slab[:d.ncols:d.ncols], kt.row)
	d.slab = d.slab[d.ncols:]
	return t, err
}

// keyer builds and compares records for one sort operator. wrap is not
// safe for concurrent use (it reuses a scratch buffer and appends to an
// arena); compare is pure and may be called from parallel segment sorters.
type keyer struct {
	codec *keys.Codec // nil only for TopN's source, which never wraps
	// skip is the number of leading encoded-key bytes every key this keyer
	// compares is known to share. MRS binds one skip-carrying keyer per
	// partial-sort segment (the encoded byte length of the segment's
	// shared `given` prefix, keys.Codec.PrefixLen), so segment sorts and
	// per-segment run merges short-circuit the common prefix instead of
	// re-scanning it on every bytes.Compare — and radix run formation
	// seeds its first partitioning pass at this depth.
	skip    int
	scratch []byte
	arena   []byte // current arena block; records are carved from it
}

// Arena blocks double from arenaFirstBlock up to arenaBlockSize, so a
// sort of a few rows allocates a few KiB and a large one O(N / 64 KiB)
// blocks.
const (
	arenaFirstBlock = 4 << 10
	arenaBlockSize  = 64 << 10
)

// withSkip returns a keyer with the same codec that compares keys past
// the first skip encoded bytes, with its own (empty) scratch and arena.
// The caller guarantees every key the keyer will ever see shares those
// bytes (and is at least that long); MRS derives skip per segment from
// the shared `given`-prefix encoding.
func (k *keyer) withSkip(skip int) *keyer { return &keyer{codec: k.codec, skip: skip} }

// wrap stores t as a record: its sort key and its Tuple.Encode bytes,
// encoded back to back into a reused scratch buffer and copied into the
// arena. Records are carved from arena blocks, so buffering N rows
// allocates O(N / block) objects; earlier records stay valid because a
// full block is simply abandoned to the garbage collector when the next
// one is carved. t may be a reused view: the record does not alias it.
func (k *keyer) wrap(t types.Tuple) keyed {
	k.scratch = k.codec.Append(k.scratch[:0], t)
	klen := len(k.scratch)
	k.scratch = t.Encode(k.scratch)
	n := len(k.scratch)
	if cap(k.arena)-len(k.arena) < n {
		size := min(max(2*cap(k.arena), arenaFirstBlock), arenaBlockSize)
		k.arena = make([]byte, 0, max(size, n))
	}
	start := len(k.arena)
	k.arena = append(k.arena, k.scratch...)
	mid, end := start+klen, len(k.arena)
	return keyed{key: k.arena[start:mid:mid], row: k.arena[mid:end:end]}
}

// compare orders two sort keys. Callers count comparisons; compare does
// not touch shared state and is safe to call concurrently.
func (k *keyer) compare(a, b []byte) int {
	return bytes.Compare(a[k.skip:], b[k.skip:])
}

// identity returns the permutation 0..n-1, reusing order's storage when
// it is large enough (MRS recycles a released segment's permutation).
func identity(order []int32, n int) []int32 {
	if order == nil || cap(order) < n {
		order = make([]int32, n)
	}
	order = order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// sortKeyed stable-sorts the permutation order (initially the identity)
// over buf under the keyer and returns the number of key comparisons
// performed. Sorting 4-byte indices instead of the 48-byte records keeps
// the sort's data movement to swaps with no write barriers (the entries
// hold pointers); emission then reads buf through the permutation. The
// count is returned rather than accumulated so parallel segment sorts can
// tally locally and publish once, keeping SortStats free of atomics and
// its totals deterministic.
func sortKeyed(buf []keyed, order []int32, ky *keyer) int64 {
	var comparisons int64
	sort.SliceStable(order, func(i, j int) bool {
		comparisons++
		return ky.compare(buf[order[i]].key, buf[order[j]].key) < 0
	})
	return comparisons
}
