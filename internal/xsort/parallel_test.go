package xsort

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// TestMRSParallelMatchesSerial: the parallel segment pipeline must be a pure
// scheduling change — same output sequence and same comparison count as the
// serial path, for both in-memory and spilling workloads.
func TestMRSParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		name   string
		rows   []types.Tuple
		blocks int
	}{
		{"inmemory", genRows(8000, 80, rng), 64},
		{"spilling", genRows(8000, 4, rng), 8},
		{"tinysegs", genRows(500, 250, rng), 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(par int) ([]types.Tuple, *SortStats, storage.IOStats) {
				cfg, d := smallCfg(t, tc.blocks)
				cfg.Parallelism = par
				m, err := NewMRS(iter.FromSlice(tc.rows), sortSchema,
					sortord.New("c1", "c2"), sortord.New("c1"), cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := iter.Drain(m)
				if err != nil {
					t.Fatal(err)
				}
				if names := d.FileNames(); len(names) != 0 {
					t.Fatalf("par=%d leaked run files %v", par, names)
				}
				return out, m.Stats(), d.Stats()
			}
			serialOut, serialStats, serialIO := run(1)
			parOut, parStats, parIO := run(8)
			if len(serialOut) != len(parOut) {
				t.Fatalf("parallel lost tuples: %d vs %d", len(parOut), len(serialOut))
			}
			ks := types.MustKeySpec(sortSchema, sortord.New("c1", "c2"))
			for i := range serialOut {
				if ks.Compare(serialOut[i], parOut[i]) != 0 {
					t.Fatalf("order diverges at %d: %v vs %v", i, serialOut[i], parOut[i])
				}
			}
			if serialStats.Comparisons != parStats.Comparisons {
				t.Fatalf("comparison counts diverge: serial %d, parallel %d — parallelism must not change the work counted",
					serialStats.Comparisons, parStats.Comparisons)
			}
			if serialStats.Segments != parStats.Segments || serialStats.SpilledSegs != parStats.SpilledSegs {
				t.Fatalf("segment stats diverge: serial %+v, parallel %+v", serialStats, parStats)
			}
			if serialStats.RunsGenerated != parStats.RunsGenerated || serialStats.MergePasses != parStats.MergePasses {
				t.Fatalf("run structure diverges: serial %+v, parallel %+v", serialStats, parStats)
			}
			// Parallel spilling must charge exactly the serial path's I/O.
			if serialIO != parIO {
				t.Fatalf("IOStats diverge: serial %+v, parallel %+v", serialIO, parIO)
			}
			// Regime counters: every spill run is serial at P=1, parallel at P>1.
			if serialStats.SpillRunsParallel != 0 || serialStats.SpillRunsSerial != serialStats.RunsGenerated {
				t.Fatalf("serial spill regime miscounted: %+v", serialStats)
			}
			if parStats.SpillRunsSerial != 0 || parStats.SpillRunsParallel != parStats.RunsGenerated {
				t.Fatalf("parallel spill regime miscounted: %+v", parStats)
			}
		})
	}
}

// TestMRSParallelPipelining: with Parallelism = P, reading ahead is bounded —
// at every point of the drain the consumer has read at most the emitted
// tuples plus P+2 segments' worth of lookahead (P queued, one emitting, one
// partially collected) plus one pump quantum. In particular the first output
// appears after roughly one segment, not after the whole input: early output
// survives parallelism.
func TestMRSParallelPipelining(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, segments, par = 20_000, 100, 4
	segSize := n / segments
	rows := genRows(n, segments, rng)
	ci := &countingIter{inner: iter.FromSlice(rows)}
	cfg, d := smallCfg(t, 64)
	cfg.Parallelism = par
	m, err := NewMRS(ci, sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bound := func(emitted int) int {
		return emitted + (par+2)*segSize + pumpQuantum + 1
	}
	emitted := 0
	for {
		_, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		emitted++
		if emitted == 1 && ci.pulled > bound(0) {
			t.Fatalf("first output after %d tuples read; want <= %d (early output lost)", ci.pulled, bound(0))
		}
		if ci.pulled > bound(emitted) {
			t.Fatalf("lookahead unbounded: emitted %d but read %d (> %d)", emitted, ci.pulled, bound(emitted))
		}
	}
	if emitted != n {
		t.Fatalf("drained %d of %d tuples", emitted, n)
	}
	if d.Stats().RunTotal() != 0 {
		t.Fatalf("in-memory parallel MRS must do no run I/O: %v", d.Stats())
	}
}

// TestMRSParallelCleanup: closing a parallel MRS mid-stream — with spilled
// runs live for the emitting segment, queued segments, and a partially
// collected one — must leave no run files behind.
func TestMRSParallelCleanup(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := genRows(6000, 3, rng) // 3 big segments
	cfg, d := smallCfg(t, 8)      // tiny memory: all segments spill
	cfg.Parallelism = 4
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, ok, err := m.Next(); !ok || err != nil {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range d.FileNames() {
		t.Fatalf("run file %q leaked after Close", name)
	}
}

// TestEncodedAndComparatorKeysAgree: sorting by normalized keys must
// reproduce the field comparator's order exactly — for SRS and MRS, in
// memory and spilled. The reference is a stable sort of the input under
// types.KeySpec.Compare; genRows' tuples are fully determined by their
// (c1, c2) key, so even SRS's unstable tie order cannot make the sequences
// differ.
func TestEncodedAndComparatorKeysAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rows := genRows(5000, 25, rng)
	shuffledRows := shuffled(rows, rand.New(rand.NewSource(25)))
	target := sortord.New("c1", "c2")
	ks := types.MustKeySpec(sortSchema, target)
	want := append([]types.Tuple(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool { return ks.Compare(want[i], want[j]) < 0 })

	agree := func(t *testing.T, got []types.Tuple) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d tuples out, want %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("sequence diverges from the comparator order at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	// M = 8 spills both sorts; M = 10000 keeps them in memory.
	t.Run("srs", func(t *testing.T) {
		for _, blocks := range []int{8, 10000} {
			cfg, _ := smallCfg(t, blocks)
			out, _, err := NewSorted(iter.FromSlice(shuffledRows), sortSchema, target, cfg)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, out)
		}
	})
	t.Run("mrs", func(t *testing.T) {
		for _, blocks := range []int{8, 10000} {
			cfg, _ := smallCfg(t, blocks)
			cfg.Parallelism = 1
			m, err := NewMRS(iter.FromSlice(rows), sortSchema, target, sortord.New("c1"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := iter.Drain(m)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, out)
		}
	})
}

// TestNullTypedKeyColumnEncodes: a NULL-typed key column (e.g. a projected
// NULL literal) holds only NULLs, which encode as a constant marker byte,
// so it sorts like any other key column — as a trailing SRS key column and
// as MRS's known `given` prefix alike.
func TestNullTypedKeyColumnEncodes(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "n", Kind: types.KindNull},
	)
	rows := []types.Tuple{
		types.NewTuple(types.NewInt(3), types.Null),
		types.NewTuple(types.NewInt(1), types.Null),
		types.NewTuple(types.NewInt(2), types.Null),
	}
	sortedK := func(out []types.Tuple) bool {
		return len(out) == 3 && out[0][0].Int() == 1 && out[1][0].Int() == 2 && out[2][0].Int() == 3
	}
	cfg, _ := smallCfg(t, 16)
	s, err := NewSRS(iter.FromSlice(rows), schema, sortord.New("k", "n"), cfg)
	if err != nil {
		t.Fatalf("NewSRS: %v", err)
	}
	out, err := iter.Drain(s)
	if err != nil || !sortedK(out) {
		t.Fatalf("SRS out=%v err=%v", out, err)
	}
	cfg2, _ := smallCfg(t, 16)
	m, err := NewMRS(iter.FromSlice(rows), schema, sortord.New("n", "k"), sortord.New("n"), cfg2)
	if err != nil {
		t.Fatalf("NewMRS: %v", err)
	}
	out, err = iter.Drain(m)
	if err != nil || !sortedK(out) {
		t.Fatalf("MRS out=%v err=%v", out, err)
	}
	if st := m.Stats(); st.Segments != 1 {
		t.Fatalf("all-NULL prefix should form one segment, got %d", st.Segments)
	}
}

// TestMRSParallelismValidation: negative parallelism is rejected; 0 resolves
// to GOMAXPROCS; spill parallelism inherits the resolved segment
// parallelism unless set explicitly.
func TestMRSParallelismValidation(t *testing.T) {
	cfg, _ := smallCfg(t, 4)
	cfg.Parallelism = -1
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.Empty, cfg); err == nil {
		t.Fatal("negative parallelism should error")
	}
	cfg.Parallelism = 0
	cfg.SpillParallelism = -1
	if _, err := NewMRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), sortord.Empty, cfg); err == nil {
		t.Fatal("negative spill parallelism should error")
	}
	if _, err := NewSRS(iter.FromSlice(nil), sortSchema, sortord.New("c1"), cfg); err == nil {
		t.Fatal("negative spill parallelism should error for SRS too")
	}
	cfg.SpillParallelism = 0
	if cfg.parallelism() < 1 {
		t.Fatalf("default parallelism resolved to %d", cfg.parallelism())
	}
	if cfg.spillParallelism() != cfg.parallelism() {
		t.Fatalf("spill parallelism %d should inherit parallelism %d",
			cfg.spillParallelism(), cfg.parallelism())
	}
	cfg.SpillParallelism = 3
	if cfg.spillParallelism() != 3 {
		t.Fatalf("explicit spill parallelism ignored: %d", cfg.spillParallelism())
	}
}

// TestMRSSpillParallelismOverride: SpillParallelism=1 pins the spill path
// to the consumer goroutine even when segment sorts run on the pool — the
// regime counters must show it, and output/stats must still match.
func TestMRSSpillParallelismOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := genRows(6000, 3, rng)
	cfg, d := smallCfg(t, 8)
	cfg.Parallelism = 4
	cfg.SpillParallelism = 1
	m, err := NewMRS(iter.FromSlice(rows), sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := iter.Drain(m)
	if err != nil {
		t.Fatal(err)
	}
	isSorted(t, out, sortord.New("c1", "c2"))
	st := m.Stats()
	if st.SpilledSegs == 0 {
		t.Fatal("workload must spill for this test to mean anything")
	}
	if st.SpillRunsParallel != 0 || st.SpillRunsSerial != st.RunsGenerated {
		t.Fatalf("SpillParallelism=1 must keep spilling serial: %+v", st)
	}
	if names := d.FileNames(); len(names) != 0 {
		t.Fatalf("leaked run files %v", names)
	}
}
