package main

import (
	"io"
	"math"
	"testing"
	"time"

	"pyro"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, pp, beyond int
	}{
		{n: 100_000, pp: 9999, beyond: 10},
		{n: 99_999, pp: 9990, beyond: 99},
		{n: 10_000, pp: 9990, beyond: 10},
		{n: 1000, pp: 9900, beyond: 10},
		{n: 999, pp: 9800, beyond: 19},
		{n: 500, pp: 9800, beyond: 10},
		{n: 200, pp: 9500, beyond: 10},
		{n: 100, pp: 9000, beyond: 10},
		{n: 99, pp: 5000, beyond: 49},
		{n: 20, pp: 5000, beyond: 10},
		{n: 19, pp: 10000, beyond: 0},
	} {
		pp, beyond := tailPercentile(tc.n)
		if pp != tc.pp || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%d with %d beyond, want p%d with %d", tc.n, pp, beyond, tc.pp, tc.beyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for pp, want := range map[int]float64{5000: 5, 9000: 9, 9900: 10, 1000: 1, 10000: 10} {
		if got := percentile(xs, pp); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", float64(pp)/100, got, want)
		}
	}
	if got := percentile(nil, 5000); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// TestPerLayerRatioBases pins what each ratio and per-op count is divided
// by, on a hand-made traced phase of two ops.
func TestPerLayerRatioBases(t *testing.T) {
	base := time.Unix(0, 0)
	q := func(est float64, blocks int, sort pyro.SortStats, reads int64, miss bool) queryRec {
		return queryRec{
			estCost: est,
			miss:    miss, goals: 10, plansCosted: 20, ordersTr: 30,
			stats: pyro.ExecStats{
				Rows: 7, GrantedBlocks: blocks, GrantWait: time.Millisecond,
				IO:    pyro.IOStats{PageReads: reads, PageWrites: 2, RunPageWrites: 2},
				Sorts: []pyro.SortStats{sort},
			},
		}
	}
	ph := phase{ops: []opRec{
		{id: 0, start: base, end: base.Add(4 * time.Millisecond), queries: []queryRec{
			q(30, 32, pyro.SortStats{TuplesIn: 100, TuplesOut: 10, Comparisons: 500}, 8, true),
			q(10, 0, pyro.SortStats{TuplesIn: 100, TuplesOut: 90}, 10, false),
		}},
		{id: 1, start: base, end: base.Add(6 * time.Millisecond), queries: []queryRec{
			q(20, 16, pyro.SortStats{TuplesIn: 200, TuplesOut: 100, Comparisons: 1500}, 18, false),
		}},
	}}
	ph.serving[1].PlanCache.Hits = 2
	ph.serving[1].PlanCache.Misses = 1
	ph.serving[1].Governor.Grants = 4
	ph.serving[1].Governor.GrantWaits = 1
	ph.serving[1].Governor.Shrinks = 3
	// Op 0 spends 0.5 + 1.5 ms outside pyro calls, op 1 all of its 6 ms.
	ph.spans = []span{
		{Op: 0, ID: 0, Parent: -1, Name: spanOp, Start: 0, End: 4e6},
		{Op: 0, ID: 1, Parent: 0, Name: "query/0", Start: 0, End: 3.5e6},
		{Op: 0, ID: 2, Parent: 1, Name: spanOptimize, Start: 0, End: 2e6},
		{Op: 1, ID: 3, Parent: -1, Name: spanOp, Start: 4e6, End: 10e6},
		{Op: 1, ID: 4, Parent: 3, Name: "query/0", Start: 4e6, End: 10e6},
	}

	m := perLayer(ph, 3.2, nil, io.Discard)
	for name, want := range map[string]float64{
		"pyro.plan_cache_hit_ratio":  2.0 / 3,         // hits / Optimize calls
		"cost.est_over_actual_io":    60.0 / (36 + 6), // estimates / measured pages
		"xsort.useful_ratio":         200.0 / 400,     // tuples out / in
		"govern.grant_waits_frac":    1.0 / 4,         // waits / grants
		"govern.granted_blocks_mean": (32.0 + 16) / 2, // over queries holding a grant
		"govern.shrinks_per_op":      3.0 / 2,         // per op
		"core.goals_explored_per_op": 10.0 / 2,        // plan-cache misses only
		"xsort.comparisons_per_op":   2000.0 / 2,      // per op, not per query
		"storage.page_reads_per_op":  36.0 / 2,        // per op
		"exec.rows_per_op":           21.0 / 2,        // per op
		"trace.overhead_frac":        4/3.2 - 1,       // traced p50 4 ms vs untraced 3.2 ms
		"bench.self_ms_p50":          2,               // nearest-rank median of 2 and 6 ms
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
