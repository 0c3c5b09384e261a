package xsort

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// The golden values below pin the spill path on the fixed workload of
// goldenRows: 6000 rows in 3 oversized segments, 512-byte pages. The
// output sequence (order-sensitive FNV checksum of the encoded tuples),
// run/pass structure and I/O totals were captured from the paper's serial
// algorithm. Run boundaries follow from the memory budget — buffered rows
// are charged at their page-format size — not from how a buffer is
// sorted. Any change to these numbers is a semantic change to the sort,
// not a scheduling change, and must be deliberate.
//
// Rows are charged at their page-format size (34 bytes each), so at M = 8
// (MRS) and M = 4 (SRS) blocks of 512 bytes a memory batch holds ~120 and
// ~60 tuples, below adaptiveMinTuples, so every batch is comparison-sorted.
// TestGoldenRadixAgrees re-runs the workload with batches large enough to
// radix-partition.
const (
	goldenChecksum = 0x5cfb849c70b9843d

	goldenMRSComparisons = 89888
	goldenMRSRuns        = 51
	goldenMRSPasses      = 3
	goldenMRSIOTotal     = 1704 // 852 reads + 852 writes, all run-attributed

	goldenSRSComparisons = 96263
	goldenSRSRuns        = 50
	goldenSRSPasses      = 3
	goldenSRSIOTotal     = 3280 // 1640 reads + 1640 writes, all run-attributed
)

func goldenRows() []types.Tuple {
	return genRows(6000, 3, rand.New(rand.NewSource(77)))
}

func goldenShuffled() []types.Tuple {
	return shuffled(goldenRows(), rand.New(rand.NewSource(78)))
}

// orderChecksum hashes the encoded tuples in sequence, so two equal
// checksums mean identical output order, not just an equal multiset.
func orderChecksum(rows []types.Tuple) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, r := range rows {
		buf = r.Encode(buf[:0])
		h.Write(buf)
	}
	return h.Sum64()
}

// TestGoldenSerialSpill pins the Parallelism=1 spill path — for both MRS
// (3 oversized segments) and SRS (shuffled input, tiny memory) — to the
// golden output, comparison counts, run/pass structure and I/O.
func TestGoldenSerialSpill(t *testing.T) {
	t.Run("mrs", func(t *testing.T) {
		d := storage.NewDisk(512)
		m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
			sortord.New("c1", "c2"), sortord.New("c1"),
			Config{Disk: d, MemoryBlocks: 8, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("output checksum = %#x, golden %#x", got, goldenChecksum)
		}
		st := m.Stats()
		if st.Comparisons != goldenMRSComparisons {
			t.Errorf("Comparisons = %d, golden %d", st.Comparisons, goldenMRSComparisons)
		}
		if st.RunsGenerated != goldenMRSRuns || st.MergePasses != goldenMRSPasses {
			t.Errorf("runs/passes = %d/%d, golden %d/%d",
				st.RunsGenerated, st.MergePasses, goldenMRSRuns, goldenMRSPasses)
		}
		if st.SpillRunsSerial != goldenMRSRuns || st.SpillRunsParallel != 0 {
			t.Errorf("spill regime = serial %d / parallel %d, want all %d serial",
				st.SpillRunsSerial, st.SpillRunsParallel, goldenMRSRuns)
		}
		io := d.Stats()
		if io.Total() != goldenMRSIOTotal || io.RunTotal() != goldenMRSIOTotal {
			t.Errorf("IO total/run = %d/%d, golden %d (all run-attributed)",
				io.Total(), io.RunTotal(), goldenMRSIOTotal)
		}
	})

	t.Run("srs", func(t *testing.T) {
		d := storage.NewDisk(512)
		s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
			sortord.New("c1", "c2"),
			Config{Disk: d, MemoryBlocks: 4, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("output checksum = %#x, golden %#x", got, goldenChecksum)
		}
		st := s.Stats()
		if st.Comparisons != goldenSRSComparisons {
			t.Errorf("Comparisons = %d, golden %d", st.Comparisons, goldenSRSComparisons)
		}
		if st.RunsGenerated != goldenSRSRuns || st.MergePasses != goldenSRSPasses {
			t.Errorf("runs/passes = %d/%d, golden %d/%d",
				st.RunsGenerated, st.MergePasses, goldenSRSRuns, goldenSRSPasses)
		}
		io := d.Stats()
		if io.Total() != goldenSRSIOTotal || io.RunTotal() != goldenSRSIOTotal {
			t.Errorf("IO total/run = %d/%d, golden %d (all run-attributed)",
				io.Total(), io.RunTotal(), goldenSRSIOTotal)
		}
	})
}

// TestGoldenRadixAgrees holds radix run formation to the golden output at
// every parallelism level, with run/pass structure, comparisons and I/O
// independent of parallelism. With 64 blocks a memory batch holds ~960
// tuples, so run formation radix-partitions it.
func TestGoldenRadixAgrees(t *testing.T) {
	type shape struct {
		runs, passes    int
		comparisons, io int64
	}
	var mrsBase, srsBase shape
	for _, par := range []int{1, 2, 4, 8} {
		d := storage.NewDisk(512)
		m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
			sortord.New("c1", "c2"), sortord.New("c1"),
			Config{Disk: d, MemoryBlocks: 64, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("par=%d: MRS checksum = %#x, golden %#x", par, got, goldenChecksum)
		}
		if st.RadixPasses == 0 || st.SpilledSegs == 0 {
			t.Errorf("par=%d: MRS did not radix-sort spilled batches: %+v", par, st)
		}
		if got := (shape{st.RunsGenerated, st.MergePasses, st.Comparisons, d.Stats().Total()}); par == 1 {
			mrsBase = got
		} else if got != mrsBase {
			t.Errorf("par=%d: MRS runs/passes/comparisons/IO = %+v, serial %+v", par, got, mrsBase)
		}
		if names := d.FileNames(); len(names) != 0 {
			t.Errorf("par=%d: MRS leaked files %v", par, names)
		}

		d2 := storage.NewDisk(512)
		s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
			sortord.New("c1", "c2"),
			Config{Disk: d2, MemoryBlocks: 64, SpillParallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		out, err = iter.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		st = s.Stats()
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("par=%d: SRS checksum = %#x, golden %#x", par, got, goldenChecksum)
		}
		if st.RadixPasses == 0 || st.RunsGenerated == 0 {
			t.Errorf("par=%d: SRS did not radix-sort a spilling fill: %+v", par, st)
		}
		if got := (shape{st.RunsGenerated, st.MergePasses, st.Comparisons, d2.Stats().Total()}); par == 1 {
			srsBase = got
		} else if got != srsBase {
			t.Errorf("par=%d: SRS runs/passes/comparisons/IO = %+v, serial %+v", par, got, srsBase)
		}
		if names := d2.FileNames(); len(names) != 0 {
			t.Errorf("par=%d: SRS leaked files %v", par, names)
		}
	}
}

// TestGoldenParallelSpillAgrees runs the identical workloads at several
// parallelism levels and demands the exact golden output order, comparison
// counts and I/O totals — parallel spilling must be a pure scheduling
// change (the PR's acceptance criterion).
func TestGoldenParallelSpillAgrees(t *testing.T) {
	for _, par := range []int{2, 4, 8} {
		d := storage.NewDisk(512)
		m, err := NewMRS(iter.FromSlice(goldenRows()), sortSchema,
			sortord.New("c1", "c2"), sortord.New("c1"),
			Config{Disk: d, MemoryBlocks: 8, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		out, err := iter.Drain(m)
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("par=%d: MRS checksum = %#x, golden %#x", par, got, goldenChecksum)
		}
		if st.Comparisons != goldenMRSComparisons {
			t.Errorf("par=%d: MRS Comparisons = %d, golden %d", par, st.Comparisons, goldenMRSComparisons)
		}
		if st.SpillRunsParallel != goldenMRSRuns || st.SpillRunsSerial != 0 {
			t.Errorf("par=%d: spill regime = serial %d / parallel %d, want all %d parallel",
				par, st.SpillRunsSerial, st.SpillRunsParallel, goldenMRSRuns)
		}
		if io := d.Stats(); io.Total() != goldenMRSIOTotal {
			t.Errorf("par=%d: MRS IO total = %d, golden %d", par, io.Total(), goldenMRSIOTotal)
		}
		if names := d.FileNames(); len(names) != 0 {
			t.Errorf("par=%d: leaked files %v", par, names)
		}

		d2 := storage.NewDisk(512)
		s, err := NewSRS(iter.FromSlice(goldenShuffled()), sortSchema,
			sortord.New("c1", "c2"),
			Config{Disk: d2, MemoryBlocks: 4, SpillParallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		out, err = iter.Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := orderChecksum(out); got != goldenChecksum {
			t.Errorf("par=%d: SRS checksum = %#x, golden %#x", par, got, goldenChecksum)
		}
		if s.Stats().Comparisons != goldenSRSComparisons {
			t.Errorf("par=%d: SRS Comparisons = %d, golden %d", par, s.Stats().Comparisons, goldenSRSComparisons)
		}
		if io := d2.Stats(); io.Total() != goldenSRSIOTotal {
			t.Errorf("par=%d: SRS IO total = %d, golden %d", par, io.Total(), goldenSRSIOTotal)
		}
	}
}
