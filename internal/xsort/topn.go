package xsort

import (
	"bytes"
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// TopN is the bounded Top-N order enforcer: it returns the first K tuples
// of its input under the target order, in that order, and nothing else.
// It keeps the best K tuples seen so far in a max-heap keyed by
// (normalized key, input sequence number), so the heap's root is the
// current K-th row. A new row that does not beat the root is rejected
// after one comparison; its key is encoded into a reused scratch buffer
// and, in batch mode, the row itself is only a view into a reused buffer,
// so a rejected row allocates nothing. Only an admitted row's key and
// tuple are copied, into the storage of the row it evicts.
//
// The sequence number breaks key ties by input order, so the output is
// byte-identical to the first K rows of a stable full sort.
//
// TopN never spills and writes no run page: it holds at most K tuples
// whatever its memory budget says. The optimizer only plans it when K
// rows fit in sort memory, and a governor shrink does not evict rows.
//
// Given a known input order that is a prefix of the target (as MRS is),
// the input arrives in segments of equal prefix; once the heap holds K
// rows, the first row of the next segment sorts after all of them, so
// TopN stops reading there. Without a given order it reads the whole
// input. Either way Open consumes what it needs and Next serves the
// sorted result.
type TopN struct {
	input  iter.Iterator
	schema *types.Schema
	k      int
	prefix int // |given|
	cfg    Config
	codec  *keys.Codec
	stats  SortStats

	src     *tupleSource
	heap    []topEntry // max-heap on (key, seq) while reading; sorted ascending after
	scratch []byte     // key of the row under test
	segKey  []byte     // encoded given-prefix of the current segment
	memSize int64      // MemSize total of the held rows
	pos     int
	opened  bool
	closed  bool
}

// topEntry is one held row: its normalized key, its input position and
// the tuple.
type topEntry struct {
	key []byte
	seq int64
	t   types.Tuple
}

// NewTopN builds a Top-N enforcer that returns the first k tuples of input
// under target. given is the order known to hold on the input (ε for
// none); it must be a prefix of target.
func NewTopN(input iter.Iterator, schema *types.Schema, target, given sortord.Order, k int64, cfg Config) (*TopN, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if target.IsEmpty() {
		return nil, fmt.Errorf("xsort: empty target order")
	}
	if !given.PrefixOf(target) {
		return nil, fmt.Errorf("xsort: input order %v is not a prefix of target %v", given, target)
	}
	if k <= 0 || k > int64(^uint32(0)>>1) {
		return nil, fmt.Errorf("xsort: Top-N bound must be in [1, 2^31), got %d", k)
	}
	ks, err := types.MakeKeySpec(schema, target)
	if err != nil {
		return nil, err
	}
	codec, err := keys.FromKeySpec(ks)
	if err != nil {
		return nil, err
	}
	return &TopN{
		input:  input,
		schema: schema,
		k:      int(k),
		prefix: given.Len(),
		cfg:    cfg,
		codec:  codec,
	}, nil
}

// Stats returns the operator's work counters. RunsGenerated, MergePasses
// and SpilledSegs are always 0.
func (s *TopN) Stats() *SortStats { return &s.stats }

// Open reads the input — all of it, or up to the first segment boundary
// past K rows under a given prefix — and sorts the K survivors.
func (s *TopN) Open() error {
	if s.opened {
		return fmt.Errorf("xsort: TopN opened twice")
	}
	s.opened = true
	if err := s.input.Open(); err != nil {
		return err
	}
	s.src = newTupleSource(s.input, s.schema, &keyer{}, s.cfg)
	if err := s.collect(); err != nil {
		return err
	}
	s.src.release()
	s.sortHeap()
	return nil
}

// collect runs the bounded heap over the input.
func (s *TopN) collect() error {
	guard := iter.NewGuard(s.cfg.Abort)
	s.heap = make([]topEntry, 0, min(s.k, 1024))
	for seq := int64(0); ; seq++ {
		if err := guard.Check(); err != nil {
			return err
		}
		t, ok, owned, err := s.src.nextRow()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		s.stats.TuplesIn++
		s.scratch = s.codec.Append(s.scratch[:0], t)
		if s.startsSegment(t, seq == 0) {
			if len(s.heap) == s.k {
				// Every later row sorts after the K held rows.
				return nil
			}
			s.stats.Segments++
		}
		if len(s.heap) < s.k {
			e := topEntry{key: bytes.Clone(s.scratch), seq: seq, t: t}
			if !owned {
				e.t = t.Clone()
			}
			s.heap = append(s.heap, e)
			s.memSize += int64(t.MemSize())
			s.siftUp(len(s.heap) - 1)
			if s.memSize > s.stats.PeakMemBytes {
				s.stats.PeakMemBytes = s.memSize
			}
			continue
		}
		// A row equal to the root loses: it came later in the input.
		s.stats.Comparisons++
		if bytes.Compare(s.scratch, s.heap[0].key) >= 0 {
			continue
		}
		root := &s.heap[0]
		s.memSize += int64(t.MemSize()) - int64(root.t.MemSize())
		root.key = append(root.key[:0], s.scratch...)
		root.seq = seq
		if owned {
			root.t = t
		} else {
			// The evicted tuple is a copy this enforcer made; reuse it.
			root.t = append(root.t[:0], t...)
		}
		s.siftDown(0, len(s.heap))
		if s.memSize > s.stats.PeakMemBytes {
			s.stats.PeakMemBytes = s.memSize
		}
	}
}

// startsSegment reports whether the row whose key is in scratch begins a
// new segment — its encoded given-prefix differs from the current
// segment's, at the cost of one comparison — and makes that prefix the
// current one when it does. The first row always begins one; without a
// given order the whole input is that one segment.
func (s *TopN) startsSegment(t types.Tuple, first bool) bool {
	if s.prefix == 0 {
		return first
	}
	p := s.codec.PrefixLen(t, s.prefix)
	if !first {
		s.stats.Comparisons++
		if bytes.Equal(s.scratch[:p], s.segKey) {
			return false
		}
	}
	s.segKey = append(s.segKey[:0], s.scratch[:p]...)
	return true
}

// greater orders heap entries by (key, seq), counting one comparison.
func (s *TopN) greater(i, j int) bool {
	s.stats.Comparisons++
	a, b := &s.heap[i], &s.heap[j]
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

func (s *TopN) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.greater(i, parent) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

// siftDown restores the max-heap property below i within heap[:n].
func (s *TopN) siftDown(i, n int) {
	//pyro:bounded(heap sift descends one level per iteration: at most log2(n) steps)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && s.greater(l, largest) {
			largest = l
		}
		if r < n && s.greater(r, largest) {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}

// sortHeap heapsorts the held rows in place into ascending (key, seq)
// order.
func (s *TopN) sortHeap() {
	for end := len(s.heap) - 1; end > 0; end-- {
		s.heap[0], s.heap[end] = s.heap[end], s.heap[0]
		s.siftDown(0, end)
	}
}

// Next returns the next of the K rows in target order.
func (s *TopN) Next() (types.Tuple, bool, error) {
	if s.pos >= len(s.heap) {
		return nil, false, nil
	}
	t := s.heap[s.pos].t
	s.pos++
	s.stats.TuplesOut++
	return t, true, nil
}

// Close drops the held rows and closes the input.
func (s *TopN) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.heap = nil
	if s.src != nil {
		s.src.release()
	}
	return s.input.Close()
}
