// Package cost implements the optimizer's cost model in I/O units, following
// §3.2 of the paper:
//
//	coe(e, ε, o)  = cpu-cost(e, o)                    if B(e) ≤ M
//	              = B(e)·(2·⌈log_{M-1}(B(e)/M)⌉ + 1)  otherwise
//
//	coe(e, o1, o2) = D(e, attrs(o2 ∧ o1)) · coe(e', ε, o2 − (o2 ∧ o1))
//	                 where e' = one partial-sort segment of e
//	                 (N(e') = N/D, B(e') = B/D, uniformity assumed)
//
// CPU work is translated into I/O units by per-operation weights, as the
// paper does ("CPU cost is appropriately translated into I/O cost units").
//
// Costs are two-phase: every operator formula is split into the blocking
// work that must happen before the first output row exists (Startup — an
// external sort's run formation and reduction passes, a hash join's build,
// SRS's phase-1 fill) and the full-drain total (Total). Cost.Prefix(k)
// interpolates the cost of producing only the first k rows, which is what a
// Top-K consumer pays under a pipelined plan: a partial sort's prefix cost
// grows one segment sort at a time, while a blocking operator charges its
// full Startup before the first row no matter how small k is (§3.1
// benefit 2, §7 Top-K).
package cost

import "math"

// Cost is the two-phase cost of producing a tuple stream: Startup is the
// blocking work spent before the first output row, Total the full-drain
// work, and Rows the output cardinality Total corresponds to. The zero
// value is a free, empty stream. Invariant: 0 ≤ Startup ≤ Total.
//
// Plan costs compose Cost values: a streaming operator adds per-row work to
// Total only and inherits its child's Startup; a blocking operator folds
// its child's entire Total into Startup. Prefix interpolates between the
// two phases, so comparing plans by Prefix(k) is exactly the paper's
// full-drain comparison at k ≥ Rows and a time-to-first-row comparison at
// k = 1.
type Cost struct {
	Startup float64
	Total   float64
	Rows    int64
}

// Prefix returns the cost of producing the first k output rows: 0 for
// k ≤ 0 (a LIMIT 0 consumer needs nothing), Total for k ≥ Rows (so
// Prefix(N) ≡ Total and unlimited comparisons are unchanged), and the
// linear interpolation Startup + (Total−Startup)·k/Rows in between — the
// per-row phase is assumed uniform, which for a partial sort of D uniform
// segments makes Prefix(k) track the ⌈k·D/N⌉ segment sorts the paper's
// operator actually performs.
func (c Cost) Prefix(k int64) float64 {
	if k <= 0 {
		return 0
	}
	if c.Rows <= 0 || k >= c.Rows {
		return c.Total
	}
	return c.Startup + (c.Total-c.Startup)*float64(k)/float64(c.Rows)
}

// Streaming builds the cost of a fully pipelined operator phase: no
// blocking startup, work spread uniformly over rows output rows.
func Streaming(work float64, rows int64) Cost {
	return Cost{Startup: 0, Total: work, Rows: rows}
}

// Blocking builds the cost of a phase that completes entirely before the
// first output row (hash build, SRS input consumption).
func Blocking(work float64) Cost {
	return Cost{Startup: work, Total: work}
}

// Model carries the cost parameters. The zero value is not usable; use
// DefaultModel and override fields as needed.
type Model struct {
	// PageSize is the disk block size in bytes.
	PageSize int
	// MemoryBlocks is M: blocks of main memory available to sorts.
	MemoryBlocks int64
	// CmpWeight converts one key comparison into I/O units.
	CmpWeight float64
	// HashWeight converts one hash-table operation into I/O units.
	HashWeight float64
	// TupleWeight converts one per-tuple pipeline step into I/O units.
	TupleWeight float64
	// SpillParallelism is the spill-path concurrency the executor will run
	// enforcers with (xsort.Config.SpillParallelism): above 1, an external
	// sort forms runs on worker flush jobs and merges reduction groups
	// concurrently, so the intermediate write-and-reread passes overlap
	// and their effective cost shrinks by roughly that factor. 0 or 1
	// prices the paper's serial spill path: coe(e, ε, o) = B·(2p + 1).
	// Callers should set this from an explicitly configured parallelism
	// only — never from GOMAXPROCS — or plan choice becomes a property of
	// the optimizing machine.
	SpillParallelism int
	// KeyEncodeWeight converts one sort-key normalization into I/O units.
	// External sorts pay it per tuple on every merge read: spill runs hold
	// tuple pages only, so each pass re-encodes the keys it reads back.
	KeyEncodeWeight float64
}

// DefaultModel mirrors the paper's environment: 4 KiB blocks and M = 10000
// blocks (40 MB) of sort memory.
func DefaultModel() Model {
	return Model{
		PageSize:         4096,
		MemoryBlocks:     10000,
		CmpWeight:        1e-5,
		HashWeight:       5e-5,
		TupleWeight:      1e-5,
		SpillParallelism: 1,
		KeyEncodeWeight:  2e-5,
	}
}

// SortCPU is cpu-cost(e, o): the in-memory sort cost for rows tuples.
func (m Model) SortCPU(rows int64) float64 {
	if rows <= 1 {
		return 0
	}
	return float64(rows) * math.Log2(float64(rows)) * m.CmpWeight
}

// FullSort is coe(e, ε, o): the cost of sorting from scratch. The paper's
// external formula B·(2p + 1) charges two block transfers per intermediate
// pass plus the final read; with SpillParallelism S > 1 those passes run as
// S concurrent group merges (and run formation overlaps them), so the pass
// term is divided by S. The final pipelined merge is a single consumer-side
// stream and stays whole.
//
// The split: an in-memory sort blocks on its entire CPU cost (the buffer
// must be full and sorted before the smallest key is known). An external
// sort blocks on run formation and the intermediate passes (B·2p/S) but
// streams the final merge read (B) one block at a time.
//
// Every merge read also pays KeyEncodeWeight per tuple — a pass over a
// spill run re-normalizes every key it reads back. With KeyEncodeWeight
// zeroed the cost reduces to the paper's B·(2p + 1).
func (m Model) FullSort(rows, blocks int64) Cost {
	if rows <= 1 || blocks <= 0 {
		return Cost{Rows: rows}
	}
	if blocks <= m.MemoryBlocks {
		return Cost{Startup: m.SortCPU(rows), Total: m.SortCPU(rows), Rows: rows}
	}
	passes := math.Ceil(logBase(float64(m.MemoryBlocks-1), float64(blocks)/float64(m.MemoryBlocks)))
	if passes < 1 {
		passes = 1
	}
	spill := float64(m.SpillParallelism)
	if spill < 1 {
		spill = 1
	}
	spillBlocks := float64(blocks)
	passCPU := float64(rows) * m.KeyEncodeWeight // per-pass key work riding on the merge reads
	startup := passes * (spillBlocks*2/spill + passCPU)
	return Cost{
		Startup: startup,
		Total:   startup + spillBlocks + passCPU, // final merge read
		Rows:    rows,
	}
}

func logBase(base, x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x) / math.Log(base)
}

// PartialSort is coe(e, o1, o2) expressed via the segment count: the caller
// computes D = D(e, attrs(o2 ∧ o1)) and passes it along with N(e) and B(e).
// Each of the D segments sorts independently (N/D rows, B/D blocks); if the
// suffix order is empty (o2 ≤ o1) the cost is zero.
//
// The split: only the first segment must be collected and sorted before the
// first row exists (Startup = one segment's full sort), and each further
// block of N/D rows costs one more segment sort — the property that makes
// Prefix(k) charge ≈ ⌈k·D/N⌉ segment sorts and a Top-K plan comparison
// favor the pipelined enforcer.
func (m Model) PartialSort(rows, blocks, segments int64, suffixLen int) Cost {
	if suffixLen == 0 || rows <= 1 {
		return Cost{Rows: rows}
	}
	if segments <= 0 {
		segments = 1
	}
	segRows := rows / segments
	if segRows < 1 {
		segRows = 1
	}
	segBlocks := blocks / segments
	if segBlocks < 1 {
		segBlocks = 1
	}
	seg := m.FullSort(segRows, segBlocks)
	return Cost{
		Startup: seg.Total,
		Total:   float64(segments) * seg.Total,
		Rows:    rows,
	}
}

// ScanIO is the cost of a sequential scan over blocks pages (streaming:
// pages are read as the consumer pulls).
func (m Model) ScanIO(blocks int64) float64 { return float64(blocks) }

// MergeJoinCPU is CM: the per-tuple merging cost of a merge join
// (streaming: both inputs are consumed in step with output production).
func (m Model) MergeJoinCPU(leftRows, rightRows int64) float64 {
	return float64(leftRows+rightRows) * m.TupleWeight
}

// HashJoinCost covers build + probe CPU plus Grace-style partition I/O when
// the build side exceeds memory. The build phase (hashing every build row,
// and the full partition pass when spilling) blocks before the first output
// row; probing streams.
func (m Model) HashJoinCost(probeRows, buildRows, probeBlocks, buildBlocks int64) Cost {
	total := float64(probeRows+buildRows) * m.HashWeight
	startup := float64(buildRows) * m.HashWeight
	if buildBlocks > m.MemoryBlocks {
		// One partition pass: write and re-read both inputs — all of it
		// before the first match can be emitted.
		io := 2 * float64(probeBlocks+buildBlocks)
		total += io
		startup += io
	}
	return Cost{Startup: startup, Total: total, Rows: probeRows}
}

// GroupAggCPU is the streaming aggregate cost over sorted input.
func (m Model) GroupAggCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// HashAggCost covers hashing every input row, plus spill I/O when the group
// state exceeds memory. Hash aggregation is fully blocking: no group is
// final until the last input row has been consumed.
func (m Model) HashAggCost(rows, groupBlocks int64) Cost {
	c := float64(rows) * m.HashWeight
	if groupBlocks > m.MemoryBlocks {
		c += 2 * float64(groupBlocks)
	}
	return Blocking(c)
}

// FilterCPU is the per-tuple predicate cost (streaming).
func (m Model) FilterCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// ProjectCPU is the per-tuple projection cost (streaming).
func (m Model) ProjectCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// MergeUnionCPU is the per-tuple merge cost of a sorted union (streaming).
func (m Model) MergeUnionCPU(rows int64) float64 { return float64(rows) * m.TupleWeight }

// FetchCost is the deferred-fetch cost (§7): one random heap page read plus
// one seek per fetched row, with the clustering index's inner nodes cached
// (streaming: one lookup per consumed row).
func (m Model) FetchCost(rows int64) float64 { return 2 * float64(rows) }

// NLJoinCost is block nested loops: spool the inner once, then rescan it
// per outer block group. The spool write blocks before the first row; the
// rescans stream with output production.
func (m Model) NLJoinCost(outerBlocks, innerBlocks int64) Cost {
	groups := outerBlocks / m.MemoryBlocks
	if outerBlocks%m.MemoryBlocks != 0 || groups == 0 {
		groups++
	}
	return Cost{
		Startup: float64(innerBlocks),
		Total:   float64(innerBlocks) + float64(groups)*float64(innerBlocks),
	}
}
