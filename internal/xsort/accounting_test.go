package xsort

import (
	"math/rand"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// TestBufferedRowsChargedAtPageSize: SRS and MRS charge a buffered row at
// Tuple.EncodedSize, the bytes it occupies on a run page. An in-memory
// segment's charge is exactly the sum over its rows, and so is the peak
// of an in-memory SRS; a budget that holds the rows' page bytes — but not
// their Go footprint (Tuple.MemSize) — sorts them without spilling.
func TestBufferedRowsChargedAtPageSize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rows := shuffled(genRows(3000, 1, rng), rng)
	var encoded, mem int64
	for _, r := range rows {
		encoded += int64(r.EncodedSize())
		mem += int64(r.MemSize())
	}
	blocks := int(encoded/512) + 1 // 512-byte pages (smallCfg)
	if mem < int64(blocks)*512 {
		t.Fatalf("precondition: %d MemSize bytes fit in %d blocks", mem, blocks)
	}
	target := sortord.New("c1", "c2")

	t.Run("mrs-segment", func(t *testing.T) {
		for _, batch := range []int{1, 64} {
			cfg, d := smallCfg(t, blocks)
			cfg.Parallelism, cfg.BatchSize = 1, batch
			var in iter.Iterator = iter.FromSlice(rows)
			if batch > 1 {
				in = newChunkIter(rows)
			}
			m, err := NewMRS(in, sortSchema, target, sortord.Empty, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Open(); err != nil {
				t.Fatal(err)
			}
			seg, err := m.collect(-1)
			if err != nil {
				t.Fatal(err)
			}
			if seg == nil || seg.spilled || seg.memBytes != encoded {
				t.Fatalf("batch %d: segment charged %d bytes (spilled %v), want Σ EncodedSize = %d",
					batch, seg.memBytes, seg.spilled, encoded)
			}
			m.segq = append(m.segq, seg)
			var out []types.Tuple
			for {
				row, ok, err := m.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				out = append(out, row)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if len(out) != len(rows) {
				t.Fatalf("batch %d: %d rows out of %d", batch, len(out), len(rows))
			}
			isSorted(t, out, target)
			st := m.Stats()
			if st.RunsGenerated != 0 || st.SpilledSegs != 0 || d.Stats().Total() != 0 {
				t.Fatalf("batch %d: in-memory segment spilled: %+v, IO %+v", batch, *st, d.Stats())
			}
			if st.PeakMemBytes != encoded {
				t.Fatalf("batch %d: PeakMemBytes = %d, want %d", batch, st.PeakMemBytes, encoded)
			}
		}
	})

	t.Run("srs", func(t *testing.T) {
		cfg, d := smallCfg(t, blocks)
		out, st, err := NewSorted(iter.FromSlice(rows), sortSchema, target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		isSorted(t, out, target)
		if st.RunsGenerated != 0 || d.Stats().Total() != 0 || st.PeakMemBytes != encoded {
			t.Fatalf("SRS: runs %d, IO %+v, PeakMemBytes %d, want 0, 0, %d",
				st.RunsGenerated, d.Stats(), st.PeakMemBytes, encoded)
		}
	})
}

// TestBatchCollectAllocatesPerArenaBlock: collecting a segment in batch
// mode stores each row as a record carved from the keyer's arena, so N
// rows cost O(N / arena block) allocations (plus the entry slice's
// growth steps), not one or more per row. Ten times the rows may add only
// the extra arena blocks and the growth steps of the entry slice.
func TestBatchCollectAllocatesPerArenaBlock(t *testing.T) {
	intSchema := types.NewSchema(
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt},
	)
	gen := func(n int) []types.Tuple {
		rng := rand.New(rand.NewSource(int64(n)))
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.NewTuple(types.NewInt(rng.Int63n(1000)), types.NewInt(int64(i)))
		}
		return rows
	}
	collect := func(rows []types.Tuple) float64 {
		cfg, _ := smallCfg(t, 1<<20)
		cfg.Parallelism, cfg.BatchSize = 1, 256
		return testing.AllocsPerRun(3, func() {
			m, err := NewMRS(newChunkIter(rows), intSchema, sortord.New("c1", "c2"), sortord.Empty, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Open(); err != nil {
				t.Fatal(err)
			}
			seg, err := m.collect(-1)
			if err != nil || seg == nil || seg.spilled {
				t.Fatalf("collect: %v", err)
			}
			m.segq = append(m.segq, seg)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, big = 2_000, 20_000
	recBytes := 2*9 + 4 + 2*9 // key + page-format row of two ints
	extraBlocks := (big-small)*recBytes/arenaBlockSize + 1
	a, b := collect(gen(small)), collect(gen(big))
	const growth = 16 // append growth steps from 2 000 to 20 000 entries, with slack
	if b-a > float64(extraBlocks+growth) {
		t.Fatalf("%v allocs for %d rows vs %v for %d: want at most %d more (arena blocks + growth)",
			b, big, a, small, extraBlocks+growth)
	}
}

// TestSegmentBuffersRecycled: MRS hands a released segment's entry slice
// and permutation to the next collector — inline at Parallelism 1, through
// its free list under read-ahead — so equal-sized segments do not regrow
// their buffers from nil. What a segment still allocates is fixed (its
// collector, keyer, radix scratch and output slab, plus a goroutine under
// read-ahead), far below the ~log₂(rows) append steps and the permutation
// a fresh buffer costs.
func TestSegmentBuffersRecycled(t *testing.T) {
	intSchema := types.NewSchema(
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt},
	)
	const segRows = 200
	gen := func(segs int) []types.Tuple {
		rng := rand.New(rand.NewSource(int64(segs)))
		rows := make([]types.Tuple, segs*segRows)
		for i := range rows {
			rows[i] = types.NewTuple(types.NewInt(int64(i/segRows)), types.NewInt(rng.Int63n(1000)))
		}
		return rows
	}
	for _, par := range []int{1, 4} {
		allocs := func(rows []types.Tuple) float64 {
			cfg, _ := smallCfg(t, 1<<20)
			cfg.Parallelism = par
			return testing.AllocsPerRun(3, func() {
				m, err := NewMRS(iter.FromSlice(rows), intSchema, sortord.New("c1", "c2"), sortord.New("c1"), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := iter.Drain(m); err != nil {
					t.Fatal(err)
				}
			})
		}
		// ~6 fixed allocations per segment at Parallelism 1 and ~8 under
		// read-ahead; without recycling each 200-row segment adds ~10 more.
		const few, many, limit = 20, 120, 12
		perSeg := (allocs(gen(many)) - allocs(gen(few))) / (many - few)
		if perSeg > limit {
			t.Errorf("par %d: %.1f allocations per segment, want at most %d", par, perSeg, limit)
		}
	}
}
