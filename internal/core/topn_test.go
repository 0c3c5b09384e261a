package core

import (
	"testing"

	"pyro/internal/logical"
	"pyro/internal/sortord"
)

// TestTopNCandidateCost pins how a TopN candidate is priced: the input's
// cost (in full for unordered input, up to the first segment boundary past
// K under a given prefix) plus cost.Model.TopN over the rows read, all of
// it blocking, holding K rows at the schema's Tuple.MemSize estimate.
func TestTopNCandidateCost(t *testing.T) {
	f := newFixture(t)
	f.buildQ3World(t, 40, 64) // partsupp: 40 segments of 64 rows on ps_partkey
	opts := DefaultOptions(HeuristicFavorable)
	m := opts.Model

	li := logical.NewScan(mustTable(f.cat, "lineitem"))
	res := mustOptimize(t, logical.NewLimit(logical.NewOrderBy(li, sortord.New("l_quantity")), 10), opts)
	p := res.Plan
	if p.Kind != OpTopN || p.Children[0].Kind != OpTableScan || !p.SortGiven.IsEmpty() {
		t.Fatalf("unordered Top-K should plan TopN over the scan:\n%s", p.Format())
	}
	in := p.Children[0]
	if want := in.Cost.Total + m.TopN(in.Rows, 10).Total; p.Cost.Total != want || p.Cost.Startup != want {
		t.Fatalf("unordered TopN cost %+v, want blocking %f", p.Cost, want)
	}
	if want := m.TopNBlocks(10, li.Schema().AvgMemSize()); p.MemBlocks != want || p.SortMemoryAsk(1000) != int(want) {
		t.Fatalf("TopN holds %d blocks (ask %d), want %d", p.MemBlocks, p.SortMemoryAsk(1000), want)
	}

	ps := logical.NewScan(mustTable(f.cat, "partsupp"))
	res = mustOptimize(t, logical.NewLimit(logical.NewOrderBy(ps, sortord.New("ps_partkey", "ps_availqty")), 5), opts)
	p = res.Plan
	if p.Kind != OpTopN || !p.SortGiven.Equal(sortord.New("ps_partkey")) {
		t.Fatalf("clustered Top-K should plan a given-prefix TopN:\n%s", p.Format())
	}
	in = p.Children[0]
	if want := in.PrefixCost(64) + m.TopN(64, 5).Total; p.Cost.Total != want {
		t.Fatalf("given-prefix TopN cost %f, want one 64-row segment: %f", p.Cost.Total, want)
	}

	// A row target is only a hint — it cannot truncate the stream, so it
	// never plans a TopN; and a plan with a full sort asks for all of M.
	opts.RowTarget = 10
	res = mustOptimize(t, logical.NewOrderBy(li, sortord.New("l_quantity")), opts)
	if res.Plan.CountKind(OpTopN) != 0 || res.Plan.SortMemoryAsk(1000) != 1000 {
		t.Fatalf("row-targeted plan:\n%s", res.Plan.Format())
	}
	if ask := res.Plan.Children[0].SortMemoryAsk(1000); ask != 0 {
		t.Fatalf("scan asks for %d blocks of sort memory", ask)
	}
}
