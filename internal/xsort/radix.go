package xsort

import "bytes"

// MSD radix run formation. Normalized keys (package keys) made every sort
// comparison a bytes.Compare; this file harvests the rest of what the
// encoding pays for: because key order IS byte order, a buffer of keyed
// tuples can be sorted by byte-bucket distribution in O(n·keylen) with no
// comparisons at all. The sorter operates on the same int32 index
// permutations the comparison path uses (sortKeyed), so emission, spilling
// and merging are untouched — only how the permutation is produced changes.
//
// The sort is most-significant-digit-first with three standard refinements:
//
//   - stable counting distribution: each pass classifies the bucket's
//     entries by one key byte and redistributes them through a scratch
//     permutation, preserving arrival order within a bucket. Stability is
//     load-bearing, not cosmetic: it makes radix order bit-identical to the
//     sort.SliceStable order of the comparison path, so whichever of the
//     two a buffer gets, the sort's output bytes are the same.
//
//   - insertion-sort cutoff: buckets at or below radixInsertionCutoff
//     entries are finished with a stable insertion sort on key suffixes.
//     Counting 257 buckets to place a handful of entries is wasted motion;
//     the crossover point is far above the cutoff.
//
//   - common-prefix skipping: before distributing, the bucket's shared key
//     prefix is measured and skipped in one scan. MRS seeds the top-level
//     call past the encoded bytes of the segment's shared `given` prefix
//     (keyer.skip, from keys.Codec.PrefixLen), and the scan extends the
//     skip through any further shared bytes — low-cardinality columns
//     produce long shared prefixes that would otherwise each cost a full
//     257-bucket counting pass.
//
// Work is accounted in SortStats alongside Comparisons: RadixPasses counts
// counting-distribution passes, RadixBucketScans the tuples classified by
// them, and the insertion-sort tail still increments Comparisons — so the
// paper's work accounting stays auditable under radix formation, it just
// has two currencies.

const (
	// radixInsertionCutoff is the bucket size at or below which the sort
	// switches to stable insertion on key suffixes. Tuned by
	// BenchmarkRadixInsertionCutoff over realistic key-length
	// distributions: short numeric keys and composite keys are flat from 8
	// through 32, but long text keys with shared prefixes degrade ~18%
	// past 16 — each insertion comparison re-scans the bucket's shared
	// suffix bytes that one cheap counting pass would have skipped once.
	radixInsertionCutoff = 16
	// adaptiveMinTuples is the buffer size below which run formation
	// keeps the comparison sort: tiny buffers are dominated by the
	// per-level bucket bookkeeping, not by comparisons.
	adaptiveMinTuples = 128
	// adaptiveMinKeyBytes is the minimum encoded key length (past any
	// shared-prefix skip) for run formation to pick radix: one- or
	// two-byte keys (a lone bool or NULL marker) partition in so few
	// passes that bytes.Compare is already effectively radix.
	adaptiveMinKeyBytes = 4
)

// sortTally is the work done by one run-formation sort, tallied locally so
// parallel segment sorts and spill jobs can publish once into SortStats in
// deterministic order (the same single-writer discipline sortKeyed's
// comparison count already followed).
type sortTally struct {
	comparisons      int64
	radixPasses      int64
	radixBucketScans int64
}

func (t sortTally) addTo(st *SortStats) {
	st.Comparisons += t.comparisons
	st.RadixPasses += t.radixPasses
	st.RadixBucketScans += t.radixBucketScans
}

// radixEligible decides whether buf is sorted by byte buckets or by
// comparisons: radix for buffers and keys long enough to amortize the
// bucket bookkeeping, the comparison sort otherwise.
func radixEligible(buf []keyed, ky *keyer) bool {
	if len(buf) < adaptiveMinTuples {
		return false
	}
	return len(buf[0].key)-ky.skip >= adaptiveMinKeyBytes
}

// formOrder produces buf's emission permutation, reusing order's storage
// when it is large enough. Both branches yield the identical stable
// order; they differ only in how the work is spent (and therefore
// tallied).
func formOrder(buf []keyed, ky *keyer, order []int32) ([]int32, sortTally) {
	order = identity(order, len(buf))
	if radixEligible(buf, ky) {
		return order, radixSort(buf, order, ky.skip, radixInsertionCutoff)
	}
	return order, sortTally{comparisons: sortKeyed(buf, order, ky)}
}

// radixSortKeyed stable-sorts buf by key bytes from offset skip (the caller
// guarantees all keys share their first skip bytes and are at least skip
// bytes long), returning the emission permutation and the work tally.
func radixSortKeyed(buf []keyed, skip int) ([]int32, sortTally) {
	return radixSortKeyedCutoff(buf, skip, radixInsertionCutoff)
}

// radixSortKeyedCutoff is radixSortKeyed with an explicit insertion-sort
// cutoff; BenchmarkRadixInsertionCutoff sweeps it to keep the constant
// honest against real key-length distributions.
func radixSortKeyedCutoff(buf []keyed, skip, cutoff int) ([]int32, sortTally) {
	order := identity(nil, len(buf))
	return order, radixSort(buf, order, skip, cutoff)
}

// radixSort stable-sorts the permutation order (initially the identity)
// over buf by key bytes from offset skip.
func radixSort(buf []keyed, order []int32, skip, cutoff int) sortTally {
	var t sortTally
	if len(buf) > 1 {
		scratch := make([]int32, len(buf))
		msdRadix(buf, order, scratch, 0, len(buf), skip, cutoff, &t)
	}
	return t
}

// msdRadix sorts order[lo:hi] — whose keys all agree on bytes [0, depth) —
// by distributing on the byte at depth and recursing into each bucket.
func msdRadix(buf []keyed, order, scratch []int32, lo, hi, depth, cutoff int, t *sortTally) {
	n := hi - lo
	if n <= 1 {
		return
	}
	if n <= cutoff {
		insertionByKey(buf, order[lo:hi], depth, t)
		return
	}
	depth += commonPrefixLen(buf, order[lo:hi], depth)

	// Classify into 257 buckets: 0 holds keys exhausted at depth (a short
	// key sorts before every extension, exactly as bytes.Compare orders a
	// prefix), 1..256 hold byte values 0..255.
	var counts [257]int
	t.radixPasses++
	t.radixBucketScans += int64(n)
	for i := lo; i < hi; i++ {
		counts[bucketOf(buf[order[i]].key, depth)]++
	}

	var next [257]int
	sum := 0
	for b := range counts {
		next[b] = sum
		sum += counts[b]
	}
	for i := lo; i < hi; i++ {
		b := bucketOf(buf[order[i]].key, depth)
		scratch[lo+next[b]] = order[i]
		next[b]++
	}
	copy(order[lo:hi], scratch[lo:hi])

	// Bucket 0 (exhausted keys) is a run of fully equal keys left in
	// arrival order — stable by construction. Value buckets recurse.
	start := lo + counts[0]
	for b := 1; b < 257; b++ {
		if counts[b] > 1 {
			msdRadix(buf, order, scratch, start, start+counts[b], depth+1, cutoff, t)
		}
		start += counts[b]
	}
}

func bucketOf(key []byte, depth int) int {
	if depth >= len(key) {
		return 0
	}
	return int(key[depth]) + 1
}

// commonPrefixLen returns how many bytes past depth every key in ord
// shares, in a single scan against the first key.
func commonPrefixLen(buf []keyed, ord []int32, depth int) int {
	first := buf[ord[0]].key
	max := len(first) - depth
	for i := 1; i < len(ord) && max > 0; i++ {
		k := buf[ord[i]].key
		if m := len(k) - depth; m < max {
			max = m
		}
		j := 0
		for j < max && k[depth+j] == first[depth+j] {
			j++
		}
		max = j
	}
	if max < 0 {
		max = 0
	}
	return max
}

// insertionByKey stable-sorts a small bucket by key suffixes, counting its
// comparisons into the tally: radix formation's residual comparison work
// is real and stays on the books.
func insertionByKey(buf []keyed, ord []int32, depth int, t *sortTally) {
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0; j-- {
			t.comparisons++
			if bytes.Compare(buf[ord[j]].key[depth:], buf[ord[j-1]].key[depth:]) >= 0 {
				break
			}
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
}
