package xsort

import (
	"bytes"
	"sort"

	"pyro/internal/keys"
	"pyro/internal/types"
)

// keyed is a tuple paired with its normalized sort key: an
// order-preserving byte string (see package keys), so comparisons are a
// single bytes.Compare. Keys are never decoded: the tuple rides along and
// is what gets emitted or spilled.
type keyed struct {
	key []byte
	t   types.Tuple
}

// keyer produces and compares keyed tuples for one sort operator. wrap is
// not safe for concurrent use (it reuses a scratch buffer and an arena);
// compare is pure and may be called from parallel segment sorters.
type keyer struct {
	codec *keys.Codec // nil => attach no keys (MRS passthrough never compares)
	// skip is the number of leading encoded-key bytes every key this keyer
	// compares is known to share. MRS binds one skip-carrying keyer per
	// partial-sort segment (the encoded byte length of the segment's
	// shared `given` prefix, keys.Codec.PrefixLen), so segment sorts and
	// per-segment run merges short-circuit the common prefix instead of
	// re-scanning it on every bytes.Compare — and radix run formation
	// seeds its first partitioning pass at this depth.
	skip    int
	scratch []byte
	arena   []byte // current arena block; keys are copied in to batch allocations
	ends    []int  // wrapBatch scratch: per-key end offsets within scratch
}

const arenaBlockSize = 64 << 10

// clone returns a keyer with the same codec and skip but
// private scratch buffers. Workers that need wrap — run merges re-encode
// keys as they read tuples back — must each hold their own clone; sharing
// one keyer across goroutines is only safe for compare.
func (k *keyer) clone() *keyer { return &keyer{codec: k.codec, skip: k.skip} }

// withSkip returns a clone that compares keys past the first skip encoded
// bytes. The caller guarantees every key the clone will ever see shares
// those bytes (and is at least that long); MRS derives skip per segment
// from the shared `given`-prefix encoding.
func (k *keyer) withSkip(skip int) *keyer {
	c := k.clone()
	c.skip = skip
	return c
}

// wrap attaches t's sort key. Keys are encoded into a reused scratch buffer
// and then copied into a block arena, so per-tuple allocations are batched;
// earlier keys stay valid because a full block is simply abandoned to the
// garbage collector when the next one is carved.
func (k *keyer) wrap(t types.Tuple) keyed {
	if k.codec == nil {
		return keyed{t: t}
	}
	k.scratch = k.codec.Append(k.scratch[:0], t)
	n := len(k.scratch)
	if cap(k.arena)-len(k.arena) < n {
		size := arenaBlockSize
		if n > size {
			size = n
		}
		k.arena = make([]byte, 0, size)
	}
	start := len(k.arena)
	k.arena = append(k.arena, k.scratch...)
	return keyed{key: k.arena[start:len(k.arena):len(k.arena)], t: t}
}

// wrapBatch attaches sort keys to a whole batch of tuples, appending the
// keyed entries to out. It is the batch analogue of wrap: the chunk's keys
// are encoded back-to-back into the scratch buffer (keys.Codec.EncodeBatch)
// and copied into the arena under a single capacity check, so the
// per-tuple cost shrinks to slicing offsets. Byte content and key
// boundaries are identical to per-tuple wrap calls.
func (k *keyer) wrapBatch(rows []types.Tuple, out []keyed) []keyed {
	if k.codec == nil {
		for _, t := range rows {
			out = append(out, keyed{t: t})
		}
		return out
	}
	k.scratch, k.ends = k.codec.EncodeBatch(k.scratch[:0], rows, k.ends[:0])
	total := len(k.scratch)
	if cap(k.arena)-len(k.arena) < total {
		size := arenaBlockSize
		if total > size {
			size = total
		}
		k.arena = make([]byte, 0, size)
	}
	base := len(k.arena)
	k.arena = append(k.arena, k.scratch...)
	prev := 0
	for i, end := range k.ends {
		out = append(out, keyed{key: k.arena[base+prev : base+end : base+end], t: rows[i]})
		prev = end
	}
	return out
}

// compare orders two keyed tuples. Callers count comparisons; compare does
// not touch shared state and is safe to call concurrently.
func (k *keyer) compare(a, b keyed) int {
	return bytes.Compare(a.key[k.skip:], b.key[k.skip:])
}

// sortKeyed stable-sorts buf under the keyer, returning the emission order
// as a permutation of indices and the number of key comparisons performed.
// Sorting indices instead of the 48-byte keyed entries keeps the sort's
// data movement to 4-byte swaps with no write barriers (the entries hold
// pointers); emission then reads buf through the permutation — the
// decode-free design: a key is only ever compared, never decoded, and the
// index leads back to the tuple. The count is returned rather than
// accumulated so parallel segment sorts can tally locally and publish once,
// keeping SortStats free of atomics and its totals deterministic.
func sortKeyed(buf []keyed, ky *keyer) ([]int32, int64) {
	order := make([]int32, len(buf))
	for i := range order {
		order[i] = int32(i)
	}
	var comparisons int64
	sort.SliceStable(order, func(i, j int) bool {
		comparisons++
		return ky.compare(buf[order[i]], buf[order[j]]) < 0
	})
	return order, comparisons
}
