package xsort

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// SRS is the standard replacement-selection external sort. It is blocking:
// Open consumes the entire input, forming runs (averaging twice the memory
// size for random input, one run for sorted input), reduces them to at most
// fan-in runs, and Next serves tuples from the final merge. When the whole
// input fits in memory no run is written and the sort is CPU-only.
//
// Each input row is stored once on entry as a record — its normalized sort
// key and its page-format bytes — charged to the memory budget at its
// page-format size; every heap comparison is then a single byte-string
// compare and every run write a byte copy.
// Run formation is inherently sequential (one replacement-selection heap),
// but the run-reduction passes merge independent groups concurrently when
// SpillParallelism > 1. All spill files live in one SpillArena, whose
// release on Close (or error) both cleans them up and folds their I/O into
// the disk's global ledger.
//
// Radix run formation applies to the phase-1 fill: when the initial memory
// load is large enough (see radixEligible) it is byte-bucket sorted and
// seeds the heap as a sorted array — valid heap order, zero build
// comparisons — or, when the whole input fits, is emitted directly.
// Replacement selection itself stays comparison-based: its incremental
// push/pop structure is what produces the paper's 2M-sized runs, and a
// heap has no radix equivalent.
type SRS struct {
	input  iter.Iterator
	schema *types.Schema
	order  sortord.Order
	cfg    Config
	ky     *keyer
	stats  SortStats

	// In-memory fast path: the records in emission order, decoded as
	// they are served.
	memOut []keyed
	memPos int
	dec    rowDecoder
	inMem  bool

	merger *runMerger
	runs   []*storage.File
	arena  *storage.SpillArena // lazily created spill namespace; owns all temps
	src    *tupleSource        // keyed input collection (batched when configured)
	opened bool
	closed bool
}

// NewSRS builds a standard replacement-selection sort of input under order
// o. The order must be resolvable against the input schema.
func NewSRS(input iter.Iterator, schema *types.Schema, o sortord.Order, cfg Config) (*SRS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if o.IsEmpty() {
		return nil, fmt.Errorf("xsort: empty sort order")
	}
	ks, err := types.MakeKeySpec(schema, o)
	if err != nil {
		return nil, err
	}
	codec, err := keys.FromKeySpec(ks)
	if err != nil {
		return nil, err
	}
	if cfg.TempPrefix == "" {
		cfg.TempPrefix = "srs"
	}
	return &SRS{
		input:  input,
		schema: schema,
		order:  o.Clone(),
		cfg:    cfg,
		ky:     &keyer{codec: codec},
		dec:    rowDecoder{ncols: schema.Len()},
	}, nil
}

// Stats returns the operator's work counters (valid after Open).
func (s *SRS) Stats() *SortStats { return &s.stats }

// Order returns the produced sort order.
func (s *SRS) Order() sortord.Order { return s.order }

// Open consumes the input and prepares the merge. This is where standard
// replacement selection breaks the pipeline: nothing is emitted until all
// input has been read. On error, any run files already written are removed.
func (s *SRS) Open() error {
	if err := s.open(); err != nil {
		s.removeTemps()
		return err
	}
	return nil
}

func (s *SRS) open() error {
	if s.opened {
		return fmt.Errorf("xsort: SRS opened twice")
	}
	s.opened = true
	if err := s.input.Open(); err != nil {
		return err
	}
	s.src = newTupleSource(s.input, s.schema, s.ky, s.cfg)
	h := newRunHeap(s.ky, &s.stats.Comparisons)
	// Open is where SRS blocks for its entire input, so it is the loop a
	// cancellation most needs to reach (a canceled query must not sort two
	// million tuples first).
	guard := iter.NewGuard(s.cfg.Abort)

	// Phase 1: read up to the memory budget into a flat fill buffer. The
	// buffer — not the heap — is what radix run formation sorts: a buffer
	// whose keys are byte-bucket sorted IS a valid min-heap (every prefix
	// of an ascending array satisfies the heap property), so replacement
	// selection can be seeded without the O(n log n) comparison cost of
	// building the initial heap.
	inputDone := false
	var fill []keyed
	var fillBytes int64
	// The budget is re-read per iteration: a governed sort's allowance can
	// shrink while the fill is being read, capping the heap (and every
	// later phase's memory) at the new bound.
	for fillBytes < s.cfg.memoryBytes() {
		if err := guard.Check(); err != nil {
			return err
		}
		kt, _, ok, err := s.src.next()
		if err != nil {
			return err
		}
		if !ok {
			inputDone = true
			break
		}
		s.stats.TuplesIn++
		fill = append(fill, kt)
		fillBytes += kt.size()
	}
	s.trackPeak(fillBytes)

	if radixEligible(fill, s.ky) {
		order, tally := radixSortKeyed(fill, s.ky.skip)
		tally.addTo(&s.stats)
		if inputDone {
			// Whole input fits in memory: emit the stable radix order
			// directly, no heap and no disk I/O.
			s.inMem = true
			s.memOut = make([]keyed, len(fill))
			for i, idx := range order {
				s.memOut[i] = fill[idx]
			}
			return nil
		}
		h.seed(fill, order)
	} else {
		// Comparison path: push the fill in input order — the identical
		// comparison sequence the pre-buffered implementation performed
		// by pushing as it read.
		for _, kt := range fill {
			h.push(runEntry{tag: 0, kt: kt})
		}
		if inputDone {
			// Whole input fits in memory: drain the heap, no disk I/O.
			s.inMem = true
			s.memOut = make([]keyed, 0, h.len())
			for h.len() > 0 {
				s.memOut = append(s.memOut, h.pop().kt)
			}
			return nil
		}
	}

	// Phase 2: replacement selection. Pop the minimum of the current run,
	// write it out, replace it with the next input tuple — tagged for the
	// current run if it can still be emitted in order, else for the next.
	currentRun := 0
	runFile := s.newTemp()
	w := storage.NewTupleWriter(runFile)
	var lastOut keyed

	finishRun := func() error {
		if err := w.Close(); err != nil {
			return err
		}
		s.runs = append(s.runs, runFile)
		s.stats.RunsGenerated++
		return nil
	}

	for {
		if err := guard.Check(); err != nil {
			return err
		}
		if h.len() == 0 {
			break
		}
		e := h.peek()
		if e.tag != currentRun {
			// Current run exhausted: start the next one.
			if err := finishRun(); err != nil {
				return err
			}
			currentRun++
			runFile = s.newTemp()
			w = storage.NewTupleWriter(runFile)
			lastOut = keyed{}
		}
		e = h.pop()
		if err := w.WriteEncoded(e.kt.row); err != nil {
			return err
		}
		lastOut = e.kt
		if !inputDone {
			kt, _, ok, err := s.src.next()
			if err != nil {
				return err
			}
			if !ok {
				inputDone = true
			} else {
				s.stats.TuplesIn++
				tag := currentRun
				s.stats.Comparisons++
				if s.ky.compare(kt.key, lastOut.key) < 0 {
					tag = currentRun + 1
				}
				h.push(runEntry{tag: tag, kt: kt})
				s.trackPeak(h.memBytes())
			}
		}
	}
	if err := finishRun(); err != nil {
		return err
	}

	// Phase 3: reduce runs to fan-in and set up the final merge. Groups
	// within a pass merge concurrently under SpillParallelism.
	runs, err := reduceRuns(s.cfg, s.arena, s.runs, s.ky, &s.stats)
	if err != nil {
		return err
	}
	s.runs = runs
	s.merger, err = newRunMerger(runs, s.ky, &s.stats.Comparisons)
	return err
}

// newTemp creates a run file in the sort's spill arena (created on first
// spill; an in-memory sort never allocates one).
func (s *SRS) newTemp() *storage.File {
	if s.arena == nil {
		s.arena = s.cfg.Disk.NewArenaTapped(s.cfg.Tap)
	}
	return s.arena.CreateTemp(s.cfg.TempPrefix, storage.KindRun)
}

// removeTemps releases the spill arena, dropping every run file this sort
// created — formation runs and reduction outputs alike — and merging the
// arena's I/O ledger into the disk's (idempotent).
func (s *SRS) removeTemps() {
	if s.arena != nil {
		s.arena.Release()
		s.arena = nil
	}
	s.runs = nil
}

func (s *SRS) trackPeak(b int64) {
	if b > s.stats.PeakMemBytes {
		s.stats.PeakMemBytes = b
	}
}

// Next returns the next tuple in sorted order.
func (s *SRS) Next() (types.Tuple, bool, error) {
	if s.inMem {
		if s.memPos >= len(s.memOut) {
			return nil, false, nil
		}
		t, err := s.dec.decode(s.memOut[s.memPos], len(s.memOut)-s.memPos)
		if err != nil {
			return nil, false, err
		}
		s.memOut[s.memPos] = keyed{} // the arena block may go once every row is out
		s.memPos++
		s.stats.TuplesOut++
		return t, true, nil
	}
	t, ok, err := s.merger.next()
	if ok {
		s.stats.TuplesOut++
	}
	return t, ok, err
}

// Close releases run files and closes the input.
func (s *SRS) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.removeTemps()
	if s.src != nil {
		s.src.release()
	}
	return s.input.Close()
}
