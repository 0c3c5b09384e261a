package xsort

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// chunkIter serves rows through the batch protocol (the chunkSource shape
// exec operators have), so the sorts' batched input path runs without the
// executor. Every chunk also carries one dead filler row per live row,
// hidden by a selection vector, the way a filter leaves its output.
type chunkIter struct {
	rows  []types.Tuple
	pos   int
	sel   []int32
	dummy types.Tuple
}

func newChunkIter(rows []types.Tuple) *chunkIter {
	dummy := make(types.Tuple, len(rows[0]))
	for i := range dummy {
		dummy[i] = types.NewString("filler")
	}
	return &chunkIter{rows: rows, dummy: dummy}
}

func (c *chunkIter) Open() error    { c.pos = 0; return nil }
func (c *chunkIter) Close() error   { return nil }
func (c *chunkIter) CanChunk() bool { return true }

func (c *chunkIter) Next() (types.Tuple, bool, error) {
	if c.pos >= len(c.rows) {
		return nil, false, nil
	}
	c.pos++
	return c.rows[c.pos-1], true, nil
}

func (c *chunkIter) NextChunk(ch *types.Chunk) error {
	ch.Reset()
	c.sel = c.sel[:0]
	for !ch.Full() && c.pos < len(c.rows) {
		c.sel = append(c.sel, int32(ch.Rows()))
		ch.AppendRow(c.rows[c.pos])
		c.pos++
		if !ch.Full() {
			ch.AppendRow(c.dummy)
		}
	}
	ch.SetSel(c.sel)
	return nil
}

// topNRows returns n rows whose c1 values run in ascending blocks led by a
// block of NULLs, whose c2 values repeat heavily and are sometimes NULL,
// and whose c3 is the row's input position — so any reordering of key
// ties shows in the output bytes.
func topNRows(n int, rng *rand.Rand) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		c1 := types.NewInt(int64(i / 40))
		if i < 40 {
			c1 = types.Null
		}
		c2 := types.NewInt(rng.Int63n(25))
		if rng.Intn(10) == 0 {
			c2 = types.Null
		}
		rows[i] = types.NewTuple(c1, c2, types.NewString(fmt.Sprintf("row-%05d", i)))
	}
	return rows
}

// stableFirstK is the reference: the first k rows of a stable sort.
func stableFirstK(rows []types.Tuple, o sortord.Order, k int) []types.Tuple {
	ks := types.MustKeySpec(sortSchema, o)
	out := append([]types.Tuple(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return ks.Compare(out[i], out[j]) < 0 })
	return out[:min(k, len(out))]
}

func sameBytes(t *testing.T, got, want []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Encode(nil)) != string(want[i].Encode(nil)) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTopNMatchesStableSort is the differential test: for unordered and
// given-prefix input, K from 1 to N−1, every batch size, parallelism 1 and
// 4, and with and without a governor budget shrunk to one block, TopN's
// output bytes are the first K rows of a stable full sort, and the
// enforcer does no I/O (smallCfg also fails the test on a leaked temp).
// The shrunk budget holds far fewer than K rows: TopN cannot spill, so it
// keeps them all.
func TestTopNMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 2000
	base := topNRows(n, rng)
	cases := []struct {
		name          string
		input         []types.Tuple
		target, given sortord.Order
	}{
		{"unordered", shuffled(base, rng), sortord.New("c2", "c1"), sortord.Empty},
		{"unordered-one-key", shuffled(base, rng), sortord.New("c2"), sortord.Empty},
		{"given-prefix", base, sortord.New("c1", "c2"), sortord.New("c1")},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 10, 100, n - 1} {
			want := stableFirstK(tc.input, tc.target, k)
			for _, batch := range []int{1, 64, 1024} {
				for _, par := range []int{1, 4} {
					for _, budget := range []Budget{nil, fixedBudget(1)} {
						name := fmt.Sprintf("%s/k=%d/batch=%d/par=%d/governed=%v", tc.name, k, batch, par, budget != nil)
						t.Run(name, func(t *testing.T) {
							cfg, d := smallCfg(t, 64)
							cfg.BatchSize, cfg.Parallelism, cfg.Budget = batch, par, budget
							var in iter.Iterator = iter.FromSlice(tc.input)
							if batch > 1 {
								in = newChunkIter(tc.input)
							}
							s, err := NewTopN(in, sortSchema, tc.target, tc.given, int64(k), cfg)
							if err != nil {
								t.Fatal(err)
							}
							got, err := iter.Drain(s)
							if err != nil {
								t.Fatal(err)
							}
							sameBytes(t, got, want)
							if io := d.Stats(); io.Total() != 0 {
								t.Fatalf("TopN did I/O: %+v", io)
							}
							st := s.Stats()
							if st.RunsGenerated != 0 || st.TuplesOut != int64(k) || st.Segments < 1 {
								t.Fatalf("stats %+v", st)
							}
							if st.PeakMemBytes <= 0 || st.PeakMemBytes > int64(k)*int64(want[0].MemSize()+64) {
								t.Fatalf("peak memory %d for %d rows", st.PeakMemBytes, k)
							}
						})
					}
				}
			}
		}
	}
}

type fixedBudget int

func (b fixedBudget) Blocks() int { return int(b) }

// TestTopNStopsAtSegmentBoundary: with a given prefix, TopN reads up to
// and including the first row of the segment after the one in which it
// came to hold K rows, and no further.
func TestTopNStopsAtSegmentBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := topNRows(2000, rng) // 40-row segments
	for _, tc := range []struct{ k, wantIn, wantSegs int }{
		{1, 41, 1},
		{40, 41, 1},
		{41, 81, 2},
		{100, 121, 3},
	} {
		cfg, _ := smallCfg(t, 8)
		src := &countingIter{inner: iter.FromSlice(rows)}
		s, err := NewTopN(src, sortSchema, sortord.New("c1", "c2"), sortord.New("c1"), int64(tc.k), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := iter.Drain(s); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if src.pulled != tc.wantIn || st.TuplesIn != int64(tc.wantIn) || st.Segments != tc.wantSegs {
			t.Fatalf("k=%d: pulled %d (TuplesIn %d), %d segments; want %d rows, %d segments",
				tc.k, src.pulled, st.TuplesIn, st.Segments, tc.wantIn, tc.wantSegs)
		}
	}
}

// TestTopNRejectsWithoutAllocating: once the heap holds the final K rows,
// every further row is rejected after one comparison and allocates
// nothing, on the row path and in batch mode alike — so a run over 20 000
// rows allocates what a run over 2 000 does. The slack of 10 objects
// absorbs the chunk pool, which the race detector makes drop entries at
// random; 18 000 allocating rejects could not hide in it.
func TestTopNRejectsWithoutAllocating(t *testing.T) {
	ascending := func(n int) []types.Tuple {
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.NewTuple(types.NewInt(int64(i)), types.NewInt(0), types.NewString("p"))
		}
		return rows
	}
	const k = 10
	for _, batch := range []int{1, 256} {
		allocs := func(rows []types.Tuple) (float64, int64) {
			cfg, _ := smallCfg(t, 8)
			cfg.BatchSize = batch
			var comparisons int64
			a := testing.AllocsPerRun(3, func() {
				var in iter.Iterator = iter.FromSlice(rows)
				if batch > 1 {
					in = newChunkIter(rows)
				}
				s, err := NewTopN(in, sortSchema, sortord.New("c1"), sortord.Empty, k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := iter.Drain(s); err != nil {
					t.Fatal(err)
				}
				comparisons = s.Stats().Comparisons
			})
			return a, comparisons
		}
		small, smallCmp := allocs(ascending(2_000))
		big, bigCmp := allocs(ascending(20_000))
		if big > small+10 {
			t.Fatalf("batch %d: %v allocs for 20 000 rows vs %v for 2 000 — rejects allocate", batch, big, small)
		}
		if bigCmp-smallCmp != 18_000 {
			t.Fatalf("batch %d: 18 000 extra rejects cost %d comparisons, want one each", batch, bigCmp-smallCmp)
		}
	}
}

// TestTopNAbortInterruptsOpen: the input loop polls the abort hook.
func TestTopNAbortInterruptsOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := shuffled(genRows(20_000, 10, rng), rng)
	cfg, _ := smallCfg(t, 8)
	cfg.Abort = abortAfter(3)
	s, err := NewTopN(iter.FromSlice(rows), sortSchema, sortord.New("c2"), sortord.Empty, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); !errors.Is(err, errCanceled) {
		t.Fatalf("Open = %v, want the abort error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTopNValidation(t *testing.T) {
	cfg, _ := smallCfg(t, 8)
	in := iter.FromSlice(nil)
	if _, err := NewTopN(in, sortSchema, sortord.New("c1"), sortord.Empty, 0, cfg); err == nil {
		t.Fatal("K = 0 accepted")
	}
	if _, err := NewTopN(in, sortSchema, sortord.Empty, sortord.Empty, 5, cfg); err == nil {
		t.Fatal("empty target accepted")
	}
	if _, err := NewTopN(in, sortSchema, sortord.New("c1", "c2"), sortord.New("c2"), 5, cfg); err == nil {
		t.Fatal("given order that is not a target prefix accepted")
	}
	s, err := NewTopN(in, sortSchema, sortord.New("c1"), sortord.Empty, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := iter.Drain(s)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %d rows, %v", len(out), err)
	}
}
