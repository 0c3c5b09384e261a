package xsort

import (
	"pyro/internal/iter"
	"pyro/internal/types"
)

// chunkSource is the structural view of the executor's batch protocol
// (exec.ChunkOperator). xsort cannot import exec — exec wraps this package —
// so the sort enforcers duck-type their input instead: any iterator that
// can serve chunks gets its input collection batched.
type chunkSource interface {
	CanChunk() bool
	NextChunk(c *types.Chunk) error
}

// tupleSource feeds a sort operator its input as keyed tuples. In row mode
// it is a thin veneer over input.Next + keyer.wrap. In batch mode
// (Config.BatchSize > 1 and the input serves chunks) it refills a pooled
// chunk, materializes the live rows — the sort retains every tuple, so the
// per-row ownership copy is work the row path's decode already paid — and
// key-encodes the whole batch in one wrapBatch call.
//
// Batching never changes what the sort observes: tuples arrive in the same
// order, and a chunk never spans a storage page, so the demand-driven I/O
// of MRS (read exactly as far as the served segment requires) and every
// SortStats counter are identical to the row path. The caller still counts
// TuplesIn and polls its abort guard per served tuple.
type tupleSource struct {
	it iter.Iterator
	ky *keyer

	// Batch mode state; cs == nil means row mode.
	cs    chunkSource
	ncols int
	batch int
	chunk *types.Chunk
	rows  []types.Tuple
	keys  []keyed
	pos   int
	done  bool
	// nextRow state: live rows in the current chunk and the reused view.
	live int
	view types.Tuple
}

// newTupleSource builds the source; it serves rows unless cfg enables
// batching and the input supports it.
func newTupleSource(it iter.Iterator, schema *types.Schema, ky *keyer, cfg Config) *tupleSource {
	s := &tupleSource{it: it, ky: ky}
	if cfg.BatchSize > 1 {
		if cs, ok := it.(chunkSource); ok && cs.CanChunk() {
			s.cs = cs
			s.ncols = schema.Len()
			s.batch = cfg.BatchSize
		}
	}
	return s
}

// next returns the next input tuple, already wrapped with its sort key.
func (s *tupleSource) next() (keyed, bool, error) {
	if s.cs == nil {
		t, ok, err := s.it.Next()
		if err != nil || !ok {
			return keyed{}, false, err
		}
		return s.ky.wrap(t), true, nil
	}
	for s.pos >= len(s.keys) {
		live, err := s.refill()
		if err != nil || live == 0 {
			return keyed{}, false, err
		}
		// One datum slab owns the whole batch: the sort retains these
		// tuples past the next refill, so they must not alias the chunk,
		// but carving them from a single allocation replaces the row
		// path's one decode allocation per tuple. The slab is not pooled —
		// retained rows keep it alive for exactly as long as the sort
		// holds any of them.
		slab := make([]types.Datum, live*s.ncols)
		s.rows = s.rows[:0]
		for i := 0; i < live; i++ {
			row := slab[i*s.ncols : (i+1)*s.ncols : (i+1)*s.ncols]
			s.rows = append(s.rows, s.chunk.CopyRow(row, i))
		}
		s.keys = s.ky.wrapBatch(s.rows, s.keys[:0])
		s.pos = 0
	}
	kt := s.keys[s.pos]
	s.pos++
	return kt, true, nil
}

// nextRow returns the next input tuple with no sort key attached. The row
// path hands over the input's own tuple (owned is true). In batch mode the
// tuple is a view into one reused row buffer that the next call
// overwrites, so a consumer that keeps only a few of the rows it sees —
// the Top-N enforcer — copies just those and allocates nothing for the
// rest. A source serves either next or nextRow, never both.
func (s *tupleSource) nextRow() (t types.Tuple, ok, owned bool, err error) {
	if s.cs == nil {
		t, ok, err := s.it.Next()
		return t, ok, true, err
	}
	if s.pos >= s.live {
		live, err := s.refill()
		if err != nil || live == 0 {
			return nil, false, false, err
		}
		s.live, s.pos = live, 0
	}
	s.view = s.chunk.CopyRow(s.view, s.pos)
	s.pos++
	return s.view, true, false, nil
}

// refill pulls the next chunk from the input and returns its live row
// count; 0 means end of input, at which point the chunk goes back to the
// pool.
func (s *tupleSource) refill() (int, error) {
	if s.done {
		return 0, nil
	}
	if s.chunk == nil {
		s.chunk = types.GetChunk(s.ncols, s.batch)
	}
	if err := s.cs.NextChunk(s.chunk); err != nil {
		return 0, err
	}
	live := s.chunk.Rows()
	if live == 0 {
		s.done = true
		s.release()
	}
	return live, nil
}

// release returns the refill chunk to the pool (idempotent; called at EOF
// and from the owning sort's Close).
func (s *tupleSource) release() {
	if s.chunk != nil {
		types.PutChunk(s.chunk)
		s.chunk = nil
	}
}
