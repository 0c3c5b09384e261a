package harness

import (
	"fmt"
	"io"
	"strings"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/cost"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/ordersel"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/workload"
)

// RunExtensions measures the two §7 future-work features implemented
// beyond the paper's evaluation: Top-K early termination over a pipelined
// partial sort, and deferred tuple fetch through a non-covering secondary
// index.
func RunExtensions(w io.Writer, scale Scale) error {
	if err := runTopK(w, scale); err != nil {
		return err
	}
	return runDeferredFetch(w, scale)
}

func runTopK(w io.Writer, scale Scale) error {
	k := scale.limit()
	section(w, fmt.Sprintf("Extension (§7): Top-K (limit %d) over a pipelined partial sort and a bounded Top-N heap", k))
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	rows := scale.rows(200_000)
	tb, err := workload.BuildSegmentTable(cat, "tk", rows, rows/500, 3)
	if err != nil {
		return err
	}
	const sortBlocks = 64
	optimize := func(q logical.Node, disablePartial bool) (*core.Plan, error) {
		opts := core.DefaultOptions(core.HeuristicFavorable)
		opts.DisablePartialSort = disablePartial
		opts.Model.MemoryBlocks = sortBlocks
		res, err := core.Optimize(q, opts)
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	}
	// limitOver prices Limit K over the unlimited ordered plan the way the
	// optimizer's Limit candidate does — the child's K-row prefix — so the
	// Sort+Limit arms show what the optimizer weighed TopN against.
	limitOver := func(order sortord.Order, disablePartial bool) (*core.Plan, error) {
		child, err := optimize(logical.NewOrderBy(logical.NewScan(tb), order), disablePartial)
		if err != nil {
			return nil, err
		}
		total := child.PrefixCost(k)
		return &core.Plan{
			Kind: core.OpLimit, Children: []*core.Plan{child}, LimitK: k,
			Schema: child.Schema, OutOrder: child.OutOrder, Rows: k,
			Cost: cost.Cost{Startup: min(child.Cost.Startup, total), Total: total, Rows: k},
		}, nil
	}
	chosen := func(order sortord.Order) func() (*core.Plan, error) {
		return func() (*core.Plan, error) {
			return optimize(logical.NewLimit(logical.NewOrderBy(logical.NewScan(tb), order), k), false)
		}
	}
	clustered, unclustered := sortord.New("c1", "c2"), sortord.New("c2", "c3")

	t := &table{header: []string{"query", "plan", "est_cost", "est_startup", "time_ms", "first_row_ms", "page_reads", "run_io", "rows"}}
	for _, v := range []struct {
		query, name string
		plan        func() (*core.Plan, error)
	}{
		{"ORDER BY c1, c2", "Limit over partial sort (MRS, closes after first segments)",
			func() (*core.Plan, error) { return limitOver(clustered, false) }},
		{"ORDER BY c1, c2", "Limit over full sort (SRS, must consume everything)",
			func() (*core.Plan, error) { return limitOver(clustered, true) }},
		{"ORDER BY c1, c2", "optimizer's choice", chosen(clustered)},
		{"ORDER BY c2, c3", "Limit over full sort (SRS, spills every row)",
			func() (*core.Plan, error) { return limitOver(unclustered, false) }},
		{"ORDER BY c2, c3", "optimizer's choice", chosen(unclustered)},
	} {
		plan, err := v.plan()
		if err != nil {
			return err
		}
		name := v.name
		if plan.Kind == core.OpTopN {
			name += ": " + strings.SplitN(plan.Format(), "  (", 2)[0]
		}
		rs, err := buildAndMeasure(disk, plan, sortBlocks, scale)
		if err != nil {
			return err
		}
		if rs.rows != k {
			return fmt.Errorf("topk: %d rows, want %d", rs.rows, k)
		}
		t.add(v.query, name, fmt.Sprintf("%.0f", plan.Cost.Total), fmt.Sprintf("%.0f", plan.Cost.Startup),
			ms(rs.elapsed), ms(rs.firstOut),
			fmt.Sprint(rs.io.PageReads), fmt.Sprint(rs.io.RunTotal()), fmt.Sprint(rs.rows))
	}
	t.write(w)
	fmt.Fprintf(w, "§3.1 benefit 2: \"producing tuples early has immense benefits for Top-K queries\"\n")
	fmt.Fprintf(w, "two-phase model: the Limit node prices the plan at its first-%d-rows prefix (%d of %d segments)\n",
		k, ordersel.SegmentBudget(k, rows, 500), 500)
	fmt.Fprintf(w, "TopN keeps the best %d rows in a heap: no run I/O, and over the clustering prefix it stops at the first segment boundary past %d rows\n", k, k)
	return nil
}

func runDeferredFetch(w io.Writer, scale Scale) error {
	section(w, "Extension (§7): deferred fetch through a non-covering index")
	disk := storage.NewDisk(0)
	cat := catalog.New(disk)
	rows := scale.rows(40_000)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindInt},
		types.Column{Name: "p1", Kind: types.KindString, Width: 100},
		types.Column{Name: "p2", Kind: types.KindString, Width: 100},
	)
	data := make([]types.Tuple, rows)
	for i := int64(0); i < rows; i++ {
		data[i] = types.NewTuple(
			types.NewInt(i), types.NewInt(i%2000),
			types.NewString("wide-payload-wide-payload-wide-payload-wide"),
			types.NewString("extra-payload-extra-payload-extra-payload-x"))
	}
	tb, err := cat.CreateTable("wide", schema, sortord.New("id"), data)
	if err != nil {
		return err
	}
	if _, err := cat.CreateIndex("wide_tag", tb, sortord.New("tag"), []string{"id"}); err != nil {
		return err
	}
	sel := logical.NewSelect(logical.NewScan(tb), expr.Eq(expr.Col("tag"), expr.IntLit(7)))
	const sortBlocks = 64

	t := &table{header: []string{"plan", "est_cost", "time_ms", "page_reads", "rows", "fetch_used"}}
	for _, v := range []struct {
		name    string
		prepare func() (*core.Plan, error)
	}{
		{"deferred fetch (PYRO-O)", func() (*core.Plan, error) {
			res, err := core.Optimize(sel, core.DefaultOptions(core.HeuristicFavorable))
			if err != nil {
				return nil, err
			}
			return res.Plan, nil
		}},
		{"table scan + filter", func() (*core.Plan, error) {
			// Build the scan+filter plan directly for comparison.
			scan := &core.Plan{
				Kind: core.OpTableScan, Table: tb, Schema: tb.Schema,
				OutOrder: tb.ClusterOrder, Rows: tb.Stats.NumRows,
				Blocks: tb.NumBlocks(),
				Cost:   cost.Streaming(float64(tb.NumBlocks()), tb.Stats.NumRows),
			}
			return &core.Plan{
				Kind: core.OpFilter, Children: []*core.Plan{scan}, Pred: sel.Pred,
				Schema: tb.Schema, OutOrder: scan.OutOrder,
				Rows: sel.Props().Rows, Blocks: scan.Blocks,
				Cost: cost.Cost{Startup: 0, Total: scan.Cost.Total + 0.01, Rows: sel.Props().Rows},
			}, nil
		}},
	} {
		plan, err := v.prepare()
		if err != nil {
			return err
		}
		rs, err := buildAndMeasure(disk, plan, sortBlocks, scale)
		if err != nil {
			return err
		}
		t.add(v.name, fmt.Sprintf("%.0f", plan.Cost.Total), ms(rs.elapsed),
			fmt.Sprint(rs.io.PageReads), fmt.Sprint(rs.rows),
			fmt.Sprint(plan.CountKind(core.OpFetch) > 0))
	}
	t.write(w)
	fmt.Fprintf(w, "§7: \"deferring the fetch ... can be very effective when a highly selective filter discards many rows\"\n")
	return nil
}
