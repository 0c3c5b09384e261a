package storage

import (
	"encoding/binary"
	"fmt"

	"pyro/internal/types"
)

// TupleWriter appends encoded tuples to a file, packing as many tuples per
// page as fit. Page layout: u16 tuple count, then back-to-back encoded
// tuples. A tuple larger than a page is an error (the workloads never
// produce one; erroring beats silent corruption). Page-write failures —
// injected faults, temp-space exhaustion — are sticky: the first one is
// returned from the Write or Close that hit it and from every call after.
type TupleWriter struct {
	file   *File
	buf    []byte
	count  int
	tuples int64
	starts []int64 // index of the first tuple on each written page
	err    error   // first page-write failure; poisons the writer
}

// NewTupleWriter starts writing at the end of f.
func NewTupleWriter(f *File) *TupleWriter {
	return &TupleWriter{file: f, buf: make([]byte, 2, f.pageSize)}
}

// PageStarts returns, for each page written so far, the index of its first
// tuple — the directory a clustered lookup needs (valid after Close).
func (w *TupleWriter) PageStarts() []int64 {
	return append([]int64(nil), w.starts...)
}

// Write appends one tuple, flushing a full page as needed.
func (w *TupleWriter) Write(t types.Tuple) error {
	if err := w.reserve(t.EncodedSize()); err != nil {
		return err
	}
	w.buf = t.Encode(w.buf)
	w.count++
	w.tuples++
	return nil
}

// WriteEncoded appends one tuple that is already in page format: row must
// be exactly the bytes Tuple.Encode produces for it. The bytes are copied
// onto the page as they are, so the file is byte-identical to one written
// with Write; a sort that buffers rows in page format spills them without
// decoding or re-encoding.
func (w *TupleWriter) WriteEncoded(row []byte) error {
	if err := w.reserve(len(row)); err != nil {
		return err
	}
	w.buf = append(w.buf, row...)
	w.count++
	w.tuples++
	return nil
}

// reserve makes room on the current page for one encoded tuple of sz
// bytes, flushing the page when the tuple does not fit on it.
func (w *TupleWriter) reserve(sz int) error {
	if w.err != nil {
		return w.err
	}
	if 2+sz > w.file.pageSize {
		return fmt.Errorf("storage: tuple of %d bytes exceeds page capacity %d", sz, w.file.pageSize-2)
	}
	if len(w.buf)+sz > w.file.pageSize {
		return w.flush()
	}
	return nil
}

func (w *TupleWriter) flush() error {
	if w.count == 0 {
		return nil
	}
	binary.BigEndian.PutUint16(w.buf[:2], uint16(w.count))
	if _, err := w.file.AppendPage(w.buf); err != nil {
		w.err = err
		return err
	}
	w.starts = append(w.starts, w.tuples-int64(w.count))
	w.buf = w.buf[:2]
	w.count = 0
	return nil
}

// Close flushes the final partial page. A non-nil error means the file is
// missing pages and must not be used; the caller owns removing it. The
// writer must not be used after Close.
func (w *TupleWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.flush()
}

// TuplesWritten returns the number of tuples written so far.
func (w *TupleWriter) TuplesWritten() int64 { return w.tuples }

// TupleReader scans a tuple file sequentially, page by page. Each page read
// charges one block read to the disk.
type TupleReader struct {
	file    *File
	page    int
	data    []byte
	pos     int
	left    int
	started bool
}

// NewTupleReader positions a reader at the start of f.
func NewTupleReader(f *File) *TupleReader {
	return &TupleReader{file: f}
}

// Next returns the next tuple, or ok=false at end of file.
func (r *TupleReader) Next() (types.Tuple, bool, error) {
	for r.left == 0 {
		if r.page >= r.file.NumPages() {
			return nil, false, nil
		}
		data, err := r.file.ReadPage(r.page)
		if err != nil {
			return nil, false, err
		}
		r.page++
		if len(data) < 2 {
			return nil, false, fmt.Errorf("storage: malformed page in %q", r.file.Name())
		}
		r.data = data
		r.left = int(binary.BigEndian.Uint16(data[:2]))
		r.pos = 2
	}
	t, n, err := types.DecodeTuple(r.data[r.pos:])
	if err != nil {
		return nil, false, fmt.Errorf("storage: decoding %q page %d: %w", r.file.Name(), r.page-1, err)
	}
	r.pos += n
	r.left--
	return t, true, nil
}

// ReadChunk decodes tuples from the current page directly into c's column
// vectors and returns the number of rows appended (0 at end of file).
//
// The fill discipline is the batch executor's I/O-identity invariant: a
// chunk never crosses a page boundary. The reader advances to the next
// page only when no tuple of the current one remains — exactly when the
// row path's Next would — so a consumer that stops after row j has read
// precisely the pages the row path would have read to serve row j.
func (r *TupleReader) ReadChunk(c *types.Chunk) (int, error) {
	for r.left == 0 {
		if r.page >= r.file.NumPages() {
			return 0, nil
		}
		data, err := r.file.ReadPage(r.page)
		if err != nil {
			return 0, err
		}
		r.page++
		if len(data) < 2 {
			return 0, fmt.Errorf("storage: malformed page in %q", r.file.Name())
		}
		r.data = data
		r.left = int(binary.BigEndian.Uint16(data[:2]))
		r.pos = 2
	}
	rows := 0
	for r.left > 0 && !c.Full() {
		n, err := c.AppendEncoded(r.data[r.pos:])
		if err != nil {
			return rows, fmt.Errorf("storage: decoding %q page %d: %w", r.file.Name(), r.page-1, err)
		}
		r.pos += n
		r.left--
		rows++
	}
	return rows, nil
}

// Rewind repositions the reader at the start of the file and charges a seek.
func (r *TupleReader) Rewind() {
	r.page = 0
	r.data = nil
	r.pos = 0
	r.left = 0
	r.file.Seek()
}

// WriteAll writes all tuples to a fresh file and closes the writer.
func WriteAll(f *File, tuples []types.Tuple) error {
	w := NewTupleWriter(f)
	for _, t := range tuples {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadAll reads every tuple from the file (test/tool helper).
func ReadAll(f *File) ([]types.Tuple, error) {
	r := NewTupleReader(f)
	var out []types.Tuple
	for {
		t, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}
