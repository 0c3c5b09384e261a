package xsort

// runEntry is a heap element during replacement-selection run formation:
// tuples tagged for the current run sort before tuples deferred to the next.
type runEntry struct {
	tag int // run number this tuple belongs to
	kt  keyed
}

// runHeap is a binary min-heap over (tag, key). The heap order is an int32
// slot permutation over stable entry storage — the same treatment that
// moved MRS segment sorts to index sorting: every sift swaps one 4-byte
// index instead of a 56-byte entry (whose key and tuple slices also drag
// write barriers through the heap). Freed slots are recycled, so
// replacement selection's push-one-pop-one steady state never grows the
// entry array past the memory budget.
//
// Key comparisons are counted into *comparisons; tag comparisons are not
// (they are integer checks, not the multi-attribute comparisons the paper's
// analysis counts). Key bytes are excluded from memBytes so the M-block
// budget keeps the paper's tuple-size arithmetic.
type runHeap struct {
	entries     []runEntry // slot-stable storage; holes are reused via free
	heap        []int32    // heap order: slots into entries
	free        []int32    // recycled slots
	ky          *keyer
	comparisons *int64
	bytes       int64
}

func newRunHeap(ky *keyer, comparisons *int64) *runHeap {
	return &runHeap{ky: ky, comparisons: comparisons}
}

func (h *runHeap) len() int { return len(h.heap) }

func (h *runHeap) memBytes() int64 { return h.bytes }

func (h *runHeap) less(i, j int) bool {
	a, b := &h.entries[h.heap[i]], &h.entries[h.heap[j]]
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	*h.comparisons++
	return h.ky.compare(a.kt, b.kt) < 0
}

func (h *runHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
}

func (h *runHeap) push(e runEntry) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.entries[slot] = e
	} else {
		slot = int32(len(h.entries))
		h.entries = append(h.entries, e)
	}
	h.heap = append(h.heap, slot)
	h.bytes += int64(e.kt.t.MemSize())
	h.siftUp(len(h.heap) - 1)
}

// pop removes and returns the minimum entry.
func (h *runHeap) pop() runEntry {
	slot := h.heap[0]
	top := h.entries[slot]
	h.entries[slot] = runEntry{} // drop tuple/key references for the GC
	h.free = append(h.free, slot)
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	h.bytes -= int64(top.kt.t.MemSize())
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// peek returns the minimum entry without removing it.
func (h *runHeap) peek() runEntry { return h.entries[h.heap[0]] }

// seed adopts a pre-sorted phase-1 fill without any comparisons: entries
// land in arrival order (tagged for the first run) and the heap order is
// the ascending permutation the run-formation sort produced — a sorted
// array is a valid binary min-heap, so subsequent push/pop traffic works
// unchanged. Must be called on an empty heap.
func (h *runHeap) seed(fill []keyed, order []int32) {
	h.entries = make([]runEntry, len(fill))
	h.heap = append(h.heap[:0], order...)
	for i, kt := range fill {
		h.entries[i] = runEntry{tag: 0, kt: kt}
		h.bytes += int64(kt.t.MemSize())
	}
}

func (h *runHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *runHeap) siftDown(i int) {
	n := len(h.heap)
	//pyro:bounded(heap sift descends one level per iteration: at most log2(len(heap)) steps)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
