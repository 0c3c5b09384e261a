package xsort

import (
	"fmt"
	"math/rand"
	"testing"

	"pyro/internal/types"
)

// Realistic key-length distributions for the insertion-cutoff sweep. Each
// builder returns a fresh keyed buffer of n entries; keys are built at the
// byte level in the shapes the normalized-key codec actually produces.
//
//   - int64: a lone numeric ORDER BY column — 9 encoded bytes (tag +
//     big-endian payload), uniform values, so buckets fan out fast and the
//     tail buckets are tiny.
//   - composite: (low-cardinality int64, int64, short string) — the
//     grouped shapes MRS segments see. The leading column leaves ~500-row
//     buckets sharing a 9-byte prefix, so recursion spends most of its
//     time in mid-size buckets where the cutoff choice actually matters.
//   - strings: path-like variable-length text, 12–40 bytes with a handful
//     of long shared prefixes — the distribution that punishes a cutoff
//     set too low, because each extra recursion level re-scans the shared
//     bytes.
var cutoffDistributions = []struct {
	name  string
	build func(r *rand.Rand, n int) []keyed
}{
	{"int64", func(r *rand.Rand, n int) []keyed {
		buf := make([]keyed, n)
		for i := range buf {
			k := make([]byte, 9)
			k[0] = 0x10
			r.Read(k[1:])
			buf[i] = keyed{key: k, row: types.NewTuple(types.NewInt(int64(i))).Encode(nil)}
		}
		return buf
	}},
	{"composite", func(r *rand.Rand, n int) []keyed {
		buf := make([]keyed, n)
		for i := range buf {
			k := make([]byte, 0, 32)
			k = append(k, 0x10, 0, 0, 0, 0, 0, 0, 0, byte(r.Intn(100)))
			k = append(k, 0x10)
			var v [8]byte
			r.Read(v[:])
			k = append(k, v[:]...)
			k = append(k, 0x20)
			k = append(k, fmt.Sprintf("tag-%03d", r.Intn(1000))...)
			k = append(k, 0)
			buf[i] = keyed{key: k, row: types.NewTuple(types.NewInt(int64(i))).Encode(nil)}
		}
		return buf
	}},
	{"strings", func(r *rand.Rand, n int) []keyed {
		prefixes := []string{"/var/log/pyro/", "/var/lib/pyro/runs/", "/home/u/", "pyro://seg/"}
		buf := make([]keyed, n)
		for i := range buf {
			k := []byte{0x20}
			k = append(k, prefixes[r.Intn(len(prefixes))]...)
			for j := 4 + r.Intn(24); j > 0; j-- {
				k = append(k, byte('a'+r.Intn(26)))
			}
			k = append(k, 0)
			buf[i] = keyed{key: k, row: types.NewTuple(types.NewInt(int64(i))).Encode(nil)}
		}
		return buf
	}},
}

// BenchmarkRadixInsertionCutoff sweeps the insertion-sort cutoff across
// the three key-length distributions above. This is the measurement
// behind radixInsertionCutoff = 16: on 50k-key buffers the int64 and
// composite distributions are flat within noise from 8 through 32, but
// the strings distribution degrades steadily above 16 (~18% slower at 24,
// ~25% at 32) — its buckets share long prefixes, so every insertion
// comparison re-walks suffix bytes that a single counting pass classifies
// once, and the quadratic comparison count swamps the saved passes.
// 16 takes the strings win without leaving anything on the flat
// distributions. Re-run the sweep before moving the constant.
func BenchmarkRadixInsertionCutoff(b *testing.B) {
	const n = 50_000
	for _, dist := range cutoffDistributions {
		buf := dist.build(rand.New(rand.NewSource(41)), n)
		for _, cutoff := range []int{8, 16, 24, 32, 48, 64} {
			b.Run(fmt.Sprintf("%s/cutoff%d", dist.name, cutoff), func(b *testing.B) {
				b.ReportAllocs()
				var t sortTally
				for i := 0; i < b.N; i++ {
					_, t = radixSortKeyedCutoff(buf, 0, cutoff)
				}
				b.ReportMetric(float64(t.comparisons), "comparisons/op")
				b.ReportMetric(float64(t.radixPasses), "radix-passes/op")
			})
		}
	}
}
