package cost

import (
	"math"
	"testing"
)

func TestFullSortInMemory(t *testing.T) {
	m := DefaultModel()
	// Fits in memory: CPU only, and fully blocking (Startup == Total).
	got := m.FullSort(1000, 100)
	want := m.SortCPU(1000)
	if got.Total != want {
		t.Fatalf("in-memory sort = %f, want cpu %f", got.Total, want)
	}
	if got.Startup != got.Total {
		t.Fatalf("in-memory sort must block on its whole CPU cost: startup %f, total %f",
			got.Startup, got.Total)
	}
	if m.FullSort(0, 0).Total != 0 || m.FullSort(1, 1).Total != 0 {
		t.Fatal("degenerate sorts are free")
	}
}

// paperModel zeroes the key re-encode refinement so FullSort reduces to
// the paper's bare B·(2p + 1); the refinement is pinned separately in
// TestSpillLayoutPricing.
func paperModel() Model {
	m := DefaultModel()
	m.KeyEncodeWeight = 0
	return m
}

func TestFullSortExternalFormula(t *testing.T) {
	m := paperModel()
	// B = 50000, M = 10000: one merge pass => B*(2*1+1) = 150000, of which
	// the final pipelined merge read (B) streams and the passes (2B) block.
	if got := m.FullSort(2_000_000, 50_000); got.Total != 150_000 {
		t.Fatalf("external sort = %f, want 150000", got.Total)
	} else if got.Startup != 100_000 {
		t.Fatalf("external sort startup = %f, want the 2pB pass term 100000", got.Startup)
	}
	// B = M+1: still one pass.
	if got := m.FullSort(1_000_000, 10_001); got.Total != 3*10_001 {
		t.Fatalf("barely external = %f", got.Total)
	}
	// Very large: log_{M-1}(B/M) grows. B = M * (M-1)^2 needs 2 passes.
	b := m.MemoryBlocks * (m.MemoryBlocks - 1) * (m.MemoryBlocks - 1)
	if got := m.FullSort(b*10, b); got.Total != float64(b)*5 {
		t.Fatalf("two-pass sort = %f, want %f", got.Total, float64(b)*5)
	}
}

func TestPartialSort(t *testing.T) {
	m := DefaultModel()
	// 2M rows, 50k blocks, 1000 segments: each segment 2000 rows, 50
	// blocks => in-memory per segment. Cost = 1000 * cpu(2000), and only
	// the first segment's sort blocks the first row.
	got := m.PartialSort(2_000_000, 50_000, 1000, 2)
	want := 1000 * m.SortCPU(2000)
	if math.Abs(got.Total-want) > 1e-9 {
		t.Fatalf("partial sort = %f, want %f", got.Total, want)
	}
	if math.Abs(got.Startup-m.SortCPU(2000)) > 1e-12 {
		t.Fatalf("partial sort startup = %f, want one segment sort %f", got.Startup, m.SortCPU(2000))
	}
	// Full-order-satisfied: zero.
	if m.PartialSort(2_000_000, 50_000, 1000, 0).Total != 0 {
		t.Fatal("satisfied order costs nothing")
	}
	// Partial sort must beat a full external sort here.
	if full := m.FullSort(2_000_000, 50_000); got.Total >= full.Total {
		t.Fatalf("partial (%f) should beat full (%f)", got.Total, full.Total)
	}
}

func TestPartialSortSegmentsExceedMemory(t *testing.T) {
	m := DefaultModel()
	// 2 segments of 25000 blocks each: still external per segment.
	got := m.PartialSort(2_000_000, 50_000, 2, 1)
	perSeg := m.FullSort(1_000_000, 25_000)
	if got.Total != 2*perSeg.Total {
		t.Fatalf("oversized segments = %f, want %f", got.Total, 2*perSeg.Total)
	}
	if got.Startup != perSeg.Total {
		t.Fatalf("oversized segments startup = %f, want one full segment %f", got.Startup, perSeg.Total)
	}
	// Degenerate inputs.
	if m.PartialSort(1, 1, 0, 1).Total != 0 {
		t.Fatal("single row free")
	}
	if got := m.PartialSort(100, 10, 0, 1); got.Total != m.FullSort(100, 10).Total {
		t.Fatal("zero segments clamps to 1")
	}
}

func TestMonotonicity(t *testing.T) {
	m := DefaultModel()
	// More segments (finer partial order) never costs more — in total or
	// in time-to-first-row.
	prevTotal, prevStartup := math.Inf(1), math.Inf(1)
	for _, segs := range []int64{1, 10, 100, 1000, 10000} {
		c := m.PartialSort(10_000_000, 300_000, segs, 3)
		if c.Total > prevTotal {
			t.Fatalf("partial sort not monotone at %d segments: %f > %f", segs, c.Total, prevTotal)
		}
		if c.Startup > prevStartup {
			t.Fatalf("partial sort startup not monotone at %d segments: %f > %f", segs, c.Startup, prevStartup)
		}
		prevTotal, prevStartup = c.Total, c.Startup
	}
}

// TestPrefixInterpolation pins the two-phase contract: Prefix(0) = 0,
// Prefix(N) ≡ Total (so unlimited plan comparisons are unchanged), blocking
// costs charge full Startup from the first row, and the per-row phase
// interpolates linearly.
func TestPrefixInterpolation(t *testing.T) {
	c := Cost{Startup: 100, Total: 300, Rows: 1000}
	if got := c.Prefix(0); got != 0 {
		t.Fatalf("Prefix(0) = %f, want 0", got)
	}
	if got := c.Prefix(-5); got != 0 {
		t.Fatalf("Prefix(-5) = %f, want 0", got)
	}
	if got := c.Prefix(1000); got != c.Total {
		t.Fatalf("Prefix(Rows) = %f, want Total %f", got, c.Total)
	}
	if got := c.Prefix(2000); got != c.Total {
		t.Fatalf("Prefix(>Rows) = %f, want Total %f", got, c.Total)
	}
	if got := c.Prefix(500); math.Abs(got-200) > 1e-12 {
		t.Fatalf("Prefix(500) = %f, want midpoint 200", got)
	}
	// The first row already pays the whole blocking phase.
	if got := c.Prefix(1); got < c.Startup {
		t.Fatalf("Prefix(1) = %f fell below Startup %f", got, c.Startup)
	}
	// Monotone in k.
	prev := 0.0
	for k := int64(0); k <= 1100; k += 100 {
		if p := c.Prefix(k); p < prev {
			t.Fatalf("Prefix not monotone at k=%d: %f < %f", k, p, prev)
		} else {
			prev = p
		}
	}
	// Unknown cardinality degrades to Total (never underestimates).
	u := Cost{Startup: 10, Total: 50, Rows: 0}
	if got := u.Prefix(1); got != u.Total {
		t.Fatalf("Prefix with unknown Rows = %f, want Total", got)
	}
	// A fully blocking cost is flat: every k pays everything.
	b := Blocking(42)
	if b.Prefix(1) != 42 || b.Startup != 42 || b.Total != 42 {
		t.Fatalf("Blocking(42) = %+v", b)
	}
	// A streaming cost starts at ~zero.
	s := Streaming(100, 1000)
	if s.Startup != 0 || s.Prefix(1) >= s.Total {
		t.Fatalf("Streaming cost should pay per row: %+v, Prefix(1)=%f", s, s.Prefix(1))
	}
}

// TestPrefixTopKSortFlip is the model-level version of the tentpole's plan
// flip: at full drain the partial sort and full sort are comparable (or the
// full sort can even win once segments spill), but at small k the partial
// sort's prefix cost is orders of magnitude lower because only ⌈k·D/N⌉
// segment sorts are charged while the full sort blocks on everything.
func TestPrefixTopKSortFlip(t *testing.T) {
	m := DefaultModel()
	rows, blocks := int64(10_000_000), int64(300_000)
	full := m.FullSort(rows, blocks)
	partial := m.PartialSort(rows, blocks, 10_000, 1)
	for _, k := range []int64{1, 100} {
		f, p := full.Prefix(k), partial.Prefix(k)
		if p*100 > f {
			t.Fatalf("k=%d: partial prefix %f not ≪ full prefix %f", k, p, f)
		}
	}
	// And at k = N both degrade to their totals.
	if full.Prefix(rows) != full.Total || partial.Prefix(rows) != partial.Total {
		t.Fatal("Prefix(N) must equal Total")
	}
}

func TestFullSortSpillParallelism(t *testing.T) {
	serial := paperModel()
	par := paperModel()
	par.SpillParallelism = 4

	// In-memory sorts are CPU-bound: spill pricing must not touch them.
	if par.FullSort(1000, 100) != serial.FullSort(1000, 100) {
		t.Fatal("spill parallelism must not reprice in-memory sorts")
	}
	// B = 50000, M = 10000, one pass: serial B·(2+1) = 150000; at S=4 the
	// pass term overlaps 4-way: B·(2/4+1) = 75000.
	if got := serial.FullSort(2_000_000, 50_000); got.Total != 150_000 {
		t.Fatalf("serial external sort = %f, want 150000", got.Total)
	}
	if got := par.FullSort(2_000_000, 50_000); got.Total != 75_000 {
		t.Fatalf("parallel external sort = %f, want 75000", got.Total)
	}
	// The final merge stays whole: cost never drops below one full read.
	huge := paperModel()
	huge.SpillParallelism = 1 << 20
	if got := huge.FullSort(2_000_000, 50_000); got.Total < 50_000 {
		t.Fatalf("cost %f fell below the final-merge read", got.Total)
	}
	// PartialSort prices its per-segment sorts through FullSort and must
	// inherit the overlap.
	if s, p := serial.PartialSort(2_000_000, 50_000, 2, 1), par.PartialSort(2_000_000, 50_000, 2, 1); p.Total >= s.Total {
		t.Fatalf("spilling partial sort did not get cheaper: serial %f, parallel %f", s.Total, p.Total)
	}
	// A zero (unset) parallelism prices serially, like 1.
	unset := paperModel()
	unset.SpillParallelism = 0
	if unset.FullSort(2_000_000, 50_000).Total != 150_000 {
		t.Fatal("unset spill parallelism must price serially")
	}
}

// TestSpillPricingFlipsPlanChoice is a PR 3 satellite's acceptance case: the
// same two physical alternatives — a merge join fed by an external full
// sort versus a hash join — flip winners when the model prices the spill
// path as overlapped. Serially the sort's merge passes make the sort-based
// plan lose; at SpillParallelism 4 the sort halves and wins.
func TestSpillPricingFlipsPlanChoice(t *testing.T) {
	rows, blocks := int64(2_000_000), int64(50_000)
	sortPlan := func(m Model) float64 {
		return m.FullSort(rows, blocks).Total + m.MergeJoinCPU(rows, rows)
	}
	hashPlan := func(m Model) float64 {
		return m.HashJoinCost(rows, rows, 20_000, 20_000).Total
	}

	serial := paperModel()
	if sortPlan(serial) <= hashPlan(serial) {
		t.Fatalf("serial pricing: sort plan %f should lose to hash plan %f",
			sortPlan(serial), hashPlan(serial))
	}
	par := paperModel()
	par.SpillParallelism = 4
	if sortPlan(par) >= hashPlan(par) {
		t.Fatalf("parallel pricing: sort plan %f should beat hash plan %f — no flip",
			sortPlan(par), hashPlan(par))
	}
	// The unaffected alternative's price must not have moved.
	if hashPlan(par) != hashPlan(serial) {
		t.Fatal("hash join cost must be independent of spill parallelism")
	}
}

func TestJoinAndAggCosts(t *testing.T) {
	m := DefaultModel()
	if m.MergeJoinCPU(100, 200) != 300*m.TupleWeight {
		t.Fatal("merge join cpu")
	}
	// In-memory hash join: CPU only; only the build side blocks.
	inMem := m.HashJoinCost(1000, 1000, 100, 100)
	if inMem.Total != 2000*m.HashWeight {
		t.Fatalf("in-memory hash join = %f", inMem.Total)
	}
	if inMem.Startup != 1000*m.HashWeight {
		t.Fatalf("hash join startup = %f, want the build side %f", inMem.Startup, 1000*m.HashWeight)
	}
	// Build exceeds memory: partition I/O added, all of it blocking.
	spill := m.HashJoinCost(1000, 1000, 20_000, 20_000)
	if spill.Total != 2000*m.HashWeight+2*40_000 {
		t.Fatalf("spilling hash join = %f", spill.Total)
	}
	if spill.Startup != 1000*m.HashWeight+2*40_000 {
		t.Fatalf("spilling hash join startup = %f", spill.Startup)
	}
	if m.GroupAggCPU(500) != 500*m.TupleWeight {
		t.Fatal("group agg cpu")
	}
	// Hash aggregation is fully blocking.
	if ha := m.HashAggCost(500, 10); ha.Total != 500*m.HashWeight || ha.Startup != ha.Total {
		t.Fatalf("hash agg in-memory = %+v", ha)
	}
	if ha := m.HashAggCost(500, 20_000); ha.Total != 500*m.HashWeight+2*20_000 || ha.Startup != ha.Total {
		t.Fatalf("hash agg spill = %+v", ha)
	}
	if m.ScanIO(42) != 42 {
		t.Fatal("scan io")
	}
	if m.FilterCPU(10) != 10*m.TupleWeight || m.ProjectCPU(10) != 10*m.TupleWeight {
		t.Fatal("per-tuple cpu")
	}
	if m.MergeUnionCPU(10) != 10*m.TupleWeight {
		t.Fatal("union cpu")
	}
}

func TestNLJoinCost(t *testing.T) {
	m := DefaultModel()
	// Outer fits in memory: inner spooled once + read once; the spool
	// write is the blocking half.
	if got := m.NLJoinCost(100, 500); got.Total != 1000 {
		t.Fatalf("one-block NL join = %f", got.Total)
	} else if got.Startup != 500 {
		t.Fatalf("NL join startup = %f, want the spool write 500", got.Startup)
	}
	// Outer = 3.5 memory units: 4 rescans + spool.
	if got := m.NLJoinCost(35_000, 500); got.Total != 500+4*500 {
		t.Fatalf("multi-block NL join = %f", got.Total)
	}
}

func TestSortCheaperWithPartialPrefixRealScenario(t *testing.T) {
	// The Query 3 decision (§6.2): sorting 6M lineitem index entries fully
	// on (partkey, suppkey) vs partially from (suppkey) to (suppkey,
	// partkey). D(suppkey) = 10000 segments.
	m := DefaultModel()
	rows, blocks := int64(6_000_000), int64(30_000)
	full := m.FullSort(rows, blocks)
	partial := m.PartialSort(rows, blocks, 10_000, 1)
	if partial.Total >= full.Total/10 {
		t.Fatalf("partial (%f) should be at least 10x cheaper than full (%f)", partial.Total, full.Total)
	}
}

// TestSpillLayoutPricing pins the spill refinement of the tuple-page run
// layout: every merge read pays a per-tuple key re-encode on top of the
// paper's I/O, and with the knob zeroed the formula is the paper's.
func TestSpillLayoutPricing(t *testing.T) {
	rows, blocks := int64(2_000_000), int64(50_000)
	m := DefaultModel()

	// Bare I/O B·3 = 150000 plus the per-pass key work — rows ·
	// KeyEncodeWeight on the reduction pass and again on the final merge
	// read: 2·2M·2e-5 = 80.
	if got := m.FullSort(rows, blocks); got.Total != 150_080 {
		t.Fatalf("external sort = %f, want 150080", got.Total)
	}
	// The surcharge blocks with its pass and streams with the final
	// merge, exactly like the I/O it rides on.
	if got := m.FullSort(rows, blocks); got.Startup != 100_040 {
		t.Fatalf("external sort startup = %f, want 100040", got.Startup)
	}
	// In-memory sorts never pay it.
	if got, want := m.FullSort(1000, 100), paperModel().FullSort(1000, 100); got != want {
		t.Fatalf("in-memory sort repriced: %+v vs %+v", got, want)
	}
	// Zeroed knob: the paper formula.
	if paperModel().FullSort(rows, blocks).Total != 150_000 {
		t.Fatal("zeroed knob must recover B·(2p+1)")
	}
}
