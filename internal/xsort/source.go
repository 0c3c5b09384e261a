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

// tupleSource feeds a sort operator its input. In row mode it is a thin
// veneer over input.Next. In batch mode (Config.BatchSize > 1 and the
// input serves chunks) it refills a pooled chunk and serves its live rows
// through one reused row view, so serving a row allocates nothing: a sort
// that keeps the row stores it as a record (next encodes the view straight
// into the keyer's arena), and one that keeps only a few rows (TopN)
// copies just those.
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
	pos   int
	live  int // live rows in the current chunk
	done  bool
	view  types.Tuple
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

// next returns the next input row as a record (sort key and page-format
// row in the keyer's arena), together with the row as a tuple. The tuple
// is only valid until the following call: in batch mode it is the reused
// view.
func (s *tupleSource) next() (keyed, types.Tuple, bool, error) {
	t, ok, _, err := s.nextRow()
	if err != nil || !ok {
		return keyed{}, nil, false, err
	}
	return s.ky.wrap(t), t, true, nil
}

// nextRow returns the next input tuple with no record built. The row path
// hands over the input's own tuple (owned is true). In batch mode the
// tuple is a view into one reused row buffer that the next call
// overwrites.
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
