// Package workload generates the datasets and query trees for every
// experiment in the paper's evaluation (§6), scaled to run on a laptop-size
// simulated disk while preserving the structural properties each experiment
// depends on (clustering orders, covering indices, key multiplicities, and
// the ratio of relation size to sort memory). The README section "The
// simulated device and scaled workloads" gives the substitution rationale.
//
// All generation is deterministic (fixed seeds) so experiment output is
// reproducible run to run.
package workload

import (
	"math/rand"

	"pyro/internal/catalog"
	"pyro/internal/exec"
	"pyro/internal/expr"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/types"
)

// TPCHConfig scales the TPC-H-like tables.
type TPCHConfig struct {
	Suppliers        int64 // distinct l_suppkey / ps_suppkey values
	PartsPerSupplier int64 // partsupp pairs per supplier
	LinesPerPair     int64 // lineitem rows per (supp, part) pair
	Seed             int64
}

// DefaultTPCH keeps runtimes in seconds while preserving the paper's
// multiplicities (each supplier supplies many parts; each pair has several
// lineitems).
func DefaultTPCH() TPCHConfig {
	return TPCHConfig{Suppliers: 100, PartsPerSupplier: 80, LinesPerPair: 4, Seed: 1}
}

// BuildTPCH loads lineitem and partsupp with the indices Experiments A1, A4
// and B1 need:
//
//   - partsupp: clustered on (ps_partkey, ps_suppkey); covering secondary
//     index ps_sk on ps_suppkey including (ps_partkey, ps_availqty);
//   - lineitem: clustered on l_orderkey (its own key — useless for the
//     join); covering secondary index li_sk on l_suppkey including
//     (l_partkey, l_quantity, l_linestatus).
func BuildTPCH(cat *catalog.Catalog, cfg TPCHConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	psSchema := types.NewSchema(
		types.Column{Name: "ps_partkey", Kind: types.KindInt},
		types.Column{Name: "ps_suppkey", Kind: types.KindInt},
		types.Column{Name: "ps_availqty", Kind: types.KindInt},
	)
	liSchema := types.NewSchema(
		types.Column{Name: "l_orderkey", Kind: types.KindInt},
		types.Column{Name: "l_partkey", Kind: types.KindInt},
		types.Column{Name: "l_suppkey", Kind: types.KindInt},
		types.Column{Name: "l_quantity", Kind: types.KindInt},
		types.Column{Name: "l_linestatus", Kind: types.KindString, Width: 1},
	)
	var psRows, liRows []types.Tuple
	for s := int64(0); s < cfg.Suppliers; s++ {
		for k := int64(0); k < cfg.PartsPerSupplier; k++ {
			part := (s*cfg.PartsPerSupplier + k) % (cfg.Suppliers * cfg.PartsPerSupplier / 2)
			psRows = append(psRows, types.NewTuple(
				types.NewInt(part), types.NewInt(s), types.NewInt(rng.Int63n(90)+10)))
			for l := int64(0); l < cfg.LinesPerPair; l++ {
				status := "O"
				if rng.Intn(3) == 0 {
					status = "F"
				}
				liRows = append(liRows, types.NewTuple(
					types.NewInt(rng.Int63n(1_000_000)), // scattered orderkey
					types.NewInt(part), types.NewInt(s),
					types.NewInt(rng.Int63n(50)+1), types.NewString(status)))
			}
		}
	}
	ps, err := cat.CreateTable("partsupp", psSchema, sortord.New("ps_partkey", "ps_suppkey"), psRows)
	if err != nil {
		return err
	}
	li, err := cat.CreateTable("lineitem", liSchema, sortord.New("l_orderkey"), liRows)
	if err != nil {
		return err
	}
	if _, err := cat.CreateIndex("ps_sk", ps, sortord.New("ps_suppkey"), []string{"ps_partkey", "ps_availqty"}); err != nil {
		return err
	}
	if _, err := cat.CreateIndex("li_sk", li, sortord.New("l_suppkey"), []string{"l_partkey", "l_quantity", "l_linestatus"}); err != nil {
		return err
	}
	return nil
}

// Query1 is Experiment A1's ORDER BY over lineitem:
//
//	SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey
func Query1(cat *catalog.Catalog) (logical.Node, error) {
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	proj := logical.NewProjectNames(logical.NewScan(li), []string{"l_suppkey", "l_partkey"})
	return logical.NewOrderBy(proj, sortord.New("l_suppkey", "l_partkey")), nil
}

// Query2 is Experiment A4's per-(supplier, part) lineitem count:
//
//	SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey)
//	FROM partsupp, lineitem
//	WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey
//	GROUP BY ps_suppkey, ps_partkey, ps_availqty
//	ORDER BY ps_suppkey, ps_partkey
func Query2(cat *catalog.Catalog) (logical.Node, error) {
	ps, err := cat.Table("partsupp")
	if err != nil {
		return nil, err
	}
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	join := logical.NewJoin(logical.NewScan(ps), logical.NewScan(li), expr.AndOf(
		expr.Eq(expr.Col("ps_suppkey"), expr.Col("l_suppkey")),
		expr.Eq(expr.Col("ps_partkey"), expr.Col("l_partkey")),
	), exec.InnerJoin)
	gb := logical.NewGroupBy(join,
		[]string{"ps_suppkey", "ps_partkey", "ps_availqty"},
		[]logical.AggSpec{{Name: "line_count", Func: exec.AggCount, Arg: expr.Col("l_partkey")}})
	return logical.NewOrderBy(gb, sortord.New("ps_suppkey", "ps_partkey")), nil
}

// Query3 is Experiment B1's "parts running out of stock":
//
//	SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity)
//	FROM partsupp, lineitem
//	WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey
//	  AND l_linestatus = 'O'
//	GROUP BY ps_availqty, ps_partkey, ps_suppkey
//	HAVING sum(l_quantity) > ps_availqty
//	ORDER BY ps_partkey
func Query3(cat *catalog.Catalog) (logical.Node, error) {
	ps, err := cat.Table("partsupp")
	if err != nil {
		return nil, err
	}
	li, err := cat.Table("lineitem")
	if err != nil {
		return nil, err
	}
	liF := logical.NewSelect(logical.NewScan(li), expr.Eq(expr.Col("l_linestatus"), expr.StrLit("O")))
	join := logical.NewJoin(logical.NewScan(ps), liF, expr.AndOf(
		expr.Eq(expr.Col("ps_suppkey"), expr.Col("l_suppkey")),
		expr.Eq(expr.Col("ps_partkey"), expr.Col("l_partkey")),
	), exec.InnerJoin)
	gb := logical.NewGroupBy(join,
		[]string{"ps_availqty", "ps_partkey", "ps_suppkey"},
		[]logical.AggSpec{{Name: "total_qty", Func: exec.AggSum, Arg: expr.Col("l_quantity")}})
	having := logical.NewSelect(gb, expr.Compare(expr.GT, expr.Col("total_qty"), expr.Col("ps_availqty")))
	return logical.NewOrderBy(having, sortord.New("ps_partkey")), nil
}
