package xsort

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// randKeyed builds adversarial key buffers straight at the byte level:
// varying lengths, ties, keys that are prefixes of other keys, a shared
// leading region of skip bytes, and bytes from a tiny alphabet so every
// collision case actually occurs.
func randKeyed(r *rand.Rand, n, skip int) []keyed {
	shared := make([]byte, skip)
	r.Read(shared)
	alphabet := []byte{0x00, 0x01, 0x7f, 0xfe, 0xff}
	buf := make([]keyed, n)
	for i := range buf {
		k := append([]byte(nil), shared...)
		for j := r.Intn(6); j > 0; j-- {
			k = append(k, alphabet[r.Intn(len(alphabet))])
		}
		// The tuple doubles as an identity so stability violations are
		// visible even between equal keys.
		buf[i] = keyed{key: k, t: types.NewTuple(types.NewInt(int64(i)))}
	}
	// Inject exact duplicates of earlier keys.
	for i := range buf {
		if i > 0 && r.Intn(4) == 0 {
			buf[i].key = buf[r.Intn(i)].key
		}
	}
	return buf
}

// TestRadixSortKeyedMatchesStableSort: the radix permutation must be
// bit-identical to the stable comparison permutation — including tie order
// (stability) and prefix-of-longer-key ordering — for any skip depth.
func TestRadixSortKeyedMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 500; trial++ {
		skip := r.Intn(4)
		buf := randKeyed(r, r.Intn(300), skip)

		want := make([]int32, len(buf))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(i, j int) bool {
			return bytes.Compare(buf[want[i]].key[skip:], buf[want[j]].key[skip:]) < 0
		})

		got, tally := radixSortKeyed(buf, skip)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (skip %d): radix order %v != stable order %v", trial, skip, got, want)
		}
		if len(buf) > radixInsertionCutoff && tally.radixPasses == 0 {
			t.Fatalf("trial %d: %d keys sorted with zero radix passes", trial, len(buf))
		}
	}
}

func TestRadixEligibility(t *testing.T) {
	ky := &keyer{codec: testCodec(t)}
	big := make([]keyed, adaptiveMinTuples)
	for i := range big {
		big[i] = keyed{key: []byte("12345678")}
	}
	small := big[:4]
	shortKeys := make([]keyed, adaptiveMinTuples)
	for i := range shortKeys {
		shortKeys[i] = keyed{key: []byte{0x01, 0x00}}
	}

	cases := []struct {
		name string
		buf  []keyed
		ky   *keyer
		want bool
	}{
		{"big buffer", big, ky, true},
		{"tiny buffer", small, ky, false},
		{"short keys", shortKeys, ky, false},
		{"short past skip", big, ky.withSkip(6), false},
	}
	for _, tc := range cases {
		if got := radixEligible(tc.buf, tc.ky); got != tc.want {
			t.Errorf("%s: radixEligible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func testCodec(t *testing.T) *keys.Codec {
	t.Helper()
	ks := types.MustKeySpec(sortSchema, sortord.New("c1"))
	c, err := keys.FromKeySpec(ks)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fullKeySchemaRows returns rows where EVERY column is a key column of the
// target order, so byte-equal keys mean byte-equal tuples and output
// sequences are comparable across modes even where sorts are unstable
// (SRS's replacement-selection ties).
func fullKeyRows(r *rand.Rand, n, dist1 int) []types.Tuple {
	per := n / dist1
	if per == 0 {
		per = 1
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.NewTuple(
			types.NewInt(int64(i/per)),
			types.NewInt(int64(r.Intn(40))), // narrow: plenty of ties
			types.NewString(string(rune('a'+r.Intn(3)))),
		)
	}
	return rows
}

// TestRunFormationModesAgree is the property test of run formation's two
// modes: within one sort, buffers of at least adaptiveMinTuples tuples are
// radix-partitioned and smaller ones comparison-sorted, and the choice must
// never show in the output. For random segment shapes, memory budgets and
// parallelism levels — which move buffers back and forth across the
// threshold — MRS and SRS output must equal a stable reference sort, and
// run structure and I/O must match the serial run exactly.
func TestRunFormationModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	target := sortord.New("c1", "c2", "c3")
	ks := types.MustKeySpec(sortSchema, target)
	var sawRadix, sawCompareOnly bool
	for trial := 0; trial < 60; trial++ {
		n := 20 + r.Intn(3000)
		dist1 := 1 + r.Intn(12)
		// Up to ~50 blocks of 512 bytes: batches from a handful of tuples
		// to well past adaptiveMinTuples.
		blocks := 2 + r.Intn(48)
		par := 1 + r.Intn(4)
		rows := fullKeyRows(r, n, dist1)
		shuffledRows := shuffled(rows, rand.New(rand.NewSource(int64(trial))))
		want := append([]types.Tuple(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool { return ks.Compare(want[i], want[j]) < 0 })

		type result struct {
			out   []types.Tuple
			stats SortStats
			io    storage.IOStats
		}
		runMRS := func(par int) result {
			cfg, d := smallCfg(t, blocks)
			cfg.Parallelism = par
			m, err := NewMRS(iter.FromSlice(rows), sortSchema, target, sortord.New("c1"), cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := iter.Drain(m)
			if err != nil {
				t.Fatal(err)
			}
			return result{out, *m.Stats(), d.Stats()}
		}
		runSRS := func(par int) result {
			cfg, d := smallCfg(t, blocks)
			cfg.SpillParallelism = par
			s, err := NewSRS(iter.FromSlice(shuffledRows), sortSchema, target, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := iter.Drain(s)
			if err != nil {
				t.Fatal(err)
			}
			return result{out, *s.Stats(), d.Stats()}
		}

		for _, op := range []struct {
			name string
			run  func(int) result
		}{{"mrs", runMRS}, {"srs", runSRS}} {
			base := op.run(1)
			if base.stats.RadixPasses > 0 {
				sawRadix = true
			} else if base.stats.RunsGenerated > 0 {
				sawCompareOnly = true
			}
			got := op.run(par)
			for _, res := range []result{base, got} {
				if len(res.out) != len(want) {
					t.Fatalf("trial %d %s: %d tuples vs %d", trial, op.name, len(res.out), len(want))
				}
				for i := range res.out {
					if !reflect.DeepEqual(res.out[i], want[i]) {
						t.Fatalf("trial %d %s: output diverges from the reference at %d: %v vs %v",
							trial, op.name, i, res.out[i], want[i])
					}
				}
			}
			if got.stats.RunsGenerated != base.stats.RunsGenerated ||
				got.stats.MergePasses != base.stats.MergePasses ||
				got.stats.Segments != base.stats.Segments ||
				got.stats.SpilledSegs != base.stats.SpilledSegs ||
				got.stats.Comparisons != base.stats.Comparisons ||
				got.stats.RadixPasses != base.stats.RadixPasses {
				t.Fatalf("trial %d %s par=%d: work diverges from serial:\n serial %+v\n par    %+v",
					trial, op.name, par, base.stats, got.stats)
			}
			if got.io != base.io {
				t.Fatalf("trial %d %s par=%d: IO diverges: %+v vs %+v", trial, op.name, par, got.io, base.io)
			}
		}
	}
	if !sawRadix || !sawCompareOnly {
		t.Fatalf("trials did not cover both modes: radix %v, compare-only spill %v", sawRadix, sawCompareOnly)
	}
}
