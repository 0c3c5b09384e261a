// Package xsort implements external sorting as Volcano iterators:
//
//   - SRS — standard replacement selection (Knuth '73): heap-based run
//     formation producing runs averaging twice the memory size, followed by
//     multiway merging. With fully sorted input it still writes one big run
//     to disk and reads it back, breaking the pipeline — the deficiency the
//     paper highlights.
//
//   - MRS — the paper's modified replacement selection (§3.1): when the
//     input is known to carry a partial sort order (a prefix of the target
//     order), tuples are grouped into partial-sort segments and each segment
//     is sorted independently. If a segment fits in memory the sort does no
//     I/O at all and emits tuples as soon as the segment's last tuple has
//     been read, giving pipelined execution, early output, and fewer
//     comparisons (suffix-only within a segment).
//
// Key comparisons use normalized keys: each tuple's sort key is encoded
// once (package keys) into an order-preserving byte string, so a
// comparison is a single bytes.Compare instead of a typed field walk.
//
// Run formation — producing the sorted order of an in-memory buffer, be it
// an MRS segment, a spill batch, or SRS's initial heap fill — additionally
// exploits that byte order IS key order: buffers large enough to amortize
// bucket bookkeeping are sorted by MSD radix partitioning over the encoded
// keys (see radix.go), and smaller buffers or very short keys by a stable
// comparison sort. Both produce the identical stable order; they differ
// only in work accounting (RadixPasses and RadixBucketScans alongside a
// smaller Comparisons).
//
// Spill runs are plain tuple-page files. A merge re-encodes each tuple's
// key as it reads it back: one encode per tuple per pass buys log(fan-in)
// byte comparisons in the merge heap.
//
// MRS additionally sorts independent in-memory segments on a bounded worker
// pool (Config.Parallelism); see mrs.go for the pipelining contract. The
// spill path is concurrent too (Config.SpillParallelism): an oversized MRS
// segment's memory batches are sorted and written as runs by worker
// goroutines, each into a per-segment storage.SpillArena, and run reduction
// overlaps run formation; SRS parallelizes its run-reduction merge passes
// the same way. With SpillParallelism 1 both operators run the paper's
// serial algorithm bit for bit.
//
// Both operators charge every run-file page transfer to the disk's IOStats
// (attributed to KindRun, accumulated lock-free in per-arena ledgers that
// merge into the global ledger) and count key comparisons in SortStats.
// Comparison and I/O totals are identical at every parallelism level: the
// same batches form the same runs, the same groups merge in the same pass
// structure, and per-job counts fold into SortStats in deterministic order
// on the consumer goroutine. PeakMemBytes is the exception (see SortStats).
package xsort

import (
	"fmt"
	"runtime"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// SortStats records the work done by one sort operator instance.
//
// Every counter except PeakMemBytes is deterministic: identical at every
// Parallelism, SpillParallelism and BatchSize for the same input and
// memory budget. PeakMemBytes varies from run to run under parallel MRS
// segment sorts, because how many segments read-ahead holds at once
// depends on goroutine scheduling.
type SortStats struct {
	Comparisons   int64 // key comparisons performed
	RunsGenerated int   // runs written to disk
	MergePasses   int   // intermediate merge passes (excluding the final pipelined merge)
	Segments      int   // MRS: partial-sort segments processed
	SpilledSegs   int   // MRS: segments that did not fit in memory
	PeakMemBytes  int64 // high-water mark of buffered tuple bytes (not deterministic, see above)
	TuplesIn      int64
	TuplesOut     int64

	// RadixPasses and RadixBucketScans account radix run formation in the
	// same spirit Comparisons accounts the comparison sorts: one pass is
	// one counting distribution over a bucket's entries on one key byte,
	// and the scan counter totals the tuples those passes classified.
	// Total sort work reads as Comparisons (heap, merge, small-buffer and
	// insertion-sort tails) plus these.
	RadixPasses      int64
	RadixBucketScans int64

	// MergeBucketSkips and FlatRunPages are always 0. They counted the
	// work of the fixed-width spill-entry layouts, which were removed;
	// the fields stay only because the repo benchmark (perfbench) still
	// reads them, and go away with the next change to that benchmark.
	MergeBucketSkips int64
	FlatRunPages     int64

	// SpillRunsSerial and SpillRunsParallel split MRS spill-run formation
	// by regime: runs sorted and written inline on the consumer goroutine
	// (SpillParallelism 1, the paper's serial algorithm) versus runs formed
	// by worker-pool flush jobs into per-segment spill arenas. Before the
	// spill subsystem went concurrent, an oversized segment silently
	// serialized the whole pipeline even with Parallelism > 1; benchmarks
	// read these counters to tell the two regimes apart instead of
	// guessing from wall-clock shape.
	SpillRunsSerial   int
	SpillRunsParallel int
}

// Budget is a live sort-memory allowance in disk blocks. A sort consults
// it at every buffering decision (per tuple collected, per fill-loop
// iteration), so an external governor can shrink a running sort's memory
// mid-query and the sort starts spilling at the new bound from its next
// tuple on. Implementations must be safe for concurrent use — a sort's
// spill workers and the governor read and write it from different
// goroutines.
type Budget interface {
	// Blocks returns the current allowance in disk blocks.
	Blocks() int
}

// Config carries the resources available to a sort operator.
type Config struct {
	Disk *storage.Disk
	// MemoryBlocks is M, the number of disk blocks worth of main memory
	// available for sorting (the paper uses M = 10000 blocks = 40 MB).
	MemoryBlocks int
	// Budget, when non-nil, overrides MemoryBlocks as the live memory
	// allowance: buffering decisions re-read it, so it may shrink (or grow)
	// while the sort runs. MemoryBlocks still sizes the structural choices
	// fixed at build time — the merge fan-in and the cost model's M — so a
	// governor shrink changes where the sort spills, never the shape of its
	// merge. With Budget nil behaviour is exactly the static budget.
	Budget Budget
	// TempPrefix names the run files for debuggability.
	TempPrefix string
	// Parallelism bounds how many MRS in-memory segments may be sorted
	// concurrently. 0 means runtime.GOMAXPROCS(0); 1 means fully serial,
	// strictly demand-driven reading (the paper's original behaviour).
	// Read-ahead stops once buffered tuples reach the MemoryBlocks budget,
	// so parallelism deepens the pipeline without multiplying M.
	// SRS run formation is unaffected: its replacement-selection heap is
	// inherently sequential.
	Parallelism int
	// Abort, when non-nil, is polled (at a bounded stride, via iter.Guard)
	// by the sort's long-running loops: SRS's input consumption inside
	// Open, MRS's segment collection, and the run-formation and
	// run-reduction merge loops of the spill path. The first non-nil error
	// aborts the sort, which surfaces it from Open or Next and releases
	// its spill state on Close as usual. This is how streaming execution
	// threads context cancellation into a sort that would otherwise block
	// for its whole input; nil means the sort only stops at EOF or error.
	// Must be safe for concurrent use — spill workers poll it too.
	Abort func() error
	// Tap, when non-nil, observes every spill-file block transfer this sort
	// causes (run formation, reduction merges, final merge reads) in
	// addition to the normal device accounting: the sort's spill arenas are
	// created tapped. Streaming execution passes the query's storage.Tap
	// here so ExecStats.IO attributes spill I/O to the right query even
	// under concurrent cursors.
	Tap *storage.Tap
	// BatchSize, when > 1, batches the sort's *input* collection: tuples
	// are pulled from a chunk-capable input (see source.go) a chunk at a
	// time and their sort keys encoded per batch (keys.Codec.EncodeBatch).
	// The sort's tuple-level algorithm — segment boundaries, budget checks,
	// abort polling, emission — is untouched, and a chunk never crosses a
	// storage page, so output bytes, SortStats and I/O are identical at
	// every batch size. 0 or 1 means row-at-a-time collection (the legacy
	// path, exactly).
	BatchSize int
	// SpillParallelism bounds each stage of spill work independently: at
	// most this many run-forming sorts of an oversized segment's memory
	// batches in flight, and at most this many run-reduction group merges
	// at once (during the pipelined harvest the two stages overlap, so up
	// to twice this many spill goroutines can briefly coexist). 0 inherits
	// the resolved Parallelism; 1 keeps the entire spill path on the
	// consumer goroutine (the paper's serial algorithm, and the pre-arena
	// behaviour). Values above 1 let each worker form runs into its own
	// spill arena, multiplying transient sort memory by up to the same
	// factor (each in-flight flush holds one MemoryBlocks-sized batch).
	SpillParallelism int
}

func (c Config) memoryBytes() int64 {
	blocks := c.MemoryBlocks
	if c.Budget != nil {
		if b := c.Budget.Blocks(); b > 0 && b < blocks {
			blocks = b
		}
	}
	return int64(blocks) * int64(c.Disk.PageSize())
}

func (c Config) fanIn() int {
	f := c.MemoryBlocks - 1
	if f < 2 {
		f = 2
	}
	return f
}

func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) spillParallelism() int {
	if c.SpillParallelism > 0 {
		return c.SpillParallelism
	}
	return c.parallelism()
}

// validate checks configuration invariants shared by SRS and MRS.
func (c Config) validate() error {
	if c.Disk == nil {
		return fmt.Errorf("xsort: Config.Disk is nil")
	}
	if c.MemoryBlocks <= 0 {
		return fmt.Errorf("xsort: MemoryBlocks must be positive, got %d", c.MemoryBlocks)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("xsort: Parallelism must be non-negative, got %d", c.Parallelism)
	}
	if c.SpillParallelism < 0 {
		return fmt.Errorf("xsort: SpillParallelism must be non-negative, got %d", c.SpillParallelism)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("xsort: BatchSize must be non-negative, got %d", c.BatchSize)
	}
	return nil
}

// writeRun writes the tuples of a keyed buffer, in emission order, to a
// fresh run file in ns — the sort's spill arena, so concurrent writers from
// different segments or workers never share a namespace or a ledger mutex.
func writeRun(ns storage.TempSpace, prefix string, buf []keyed, order []int32) (*storage.File, error) {
	f := ns.CreateTemp(prefix, storage.KindRun)
	w := storage.NewTupleWriter(f)
	for _, idx := range order {
		if err := w.Write(buf[idx].t); err != nil {
			ns.Remove(f.Name())
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		ns.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

// recoverWorker converts a panic on a sort worker goroutine into an error at
// *dst. Worker pools run run formation, segment sorts and group merges off
// the consumer goroutine, where an unrecovered panic — a bug, or an injected
// panic fault — would kill the process before any cursor boundary could
// contain it; with this deferred on every worker it instead propagates as
// the sort's first error through the normal abort plumbing.
func recoverWorker(dst *error) {
	if r := recover(); r != nil {
		// Keep the chain when the panic value is an error, so sentinels
		// (e.g. an injected storage fault in panic mode) stay matchable
		// with errors.Is once the job error reaches the cursor.
		if err, ok := r.(error); ok {
			*dst = fmt.Errorf("xsort: worker panic: %w", err)
		} else {
			*dst = fmt.Errorf("xsort: worker panic: %v", r)
		}
	}
}

// NewSorted is a convenience that fully sorts the input under order o and
// returns the result (test/tool helper; not used on query paths).
func NewSorted(input iter.Iterator, schema *types.Schema, o sortord.Order, cfg Config) ([]types.Tuple, *SortStats, error) {
	s, err := NewSRS(input, schema, o, cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := iter.Drain(s)
	if err != nil {
		return nil, nil, err
	}
	return out, s.Stats(), nil
}
