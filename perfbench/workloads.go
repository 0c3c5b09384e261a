package main

import (
	"fmt"
	"math/rand"

	"pyro"
)

// A workload is a database configuration, data and queries generated from
// a seed, and the schedule of ops each client runs. A different seed
// changes the data and the query literals but keeps every table size and
// the mix of queries.
type workload struct {
	name    string
	clients int
	config  pyro.Config
	// generate makes the tables and the distinct queries.
	generate func(seed int64) ([]*table, []*rel)
	// pass returns pass n of a client's closed loop: a list of ops, each a
	// list of query indices run in sequence. Runs stop only at pass
	// boundaries, so every run keeps the mix exactly.
	pass func(client, n, queries int) [][]int
}

var workloads = []*workload{olapReport, topkServe, adhocPlan}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// olapReport runs the paper's four decision-support queries as one report.
// Sort memory (M = 32 blocks) is below a full sort of the join inputs, so
// Q3 and Example 1 spill while the partial-sort segments of Q1 and Q2 fit.
var olapReport = &workload{
	name:     "olap-report",
	clients:  1,
	config:   pyro.Config{SortMemoryBlocks: 32},
	generate: genOLAP,
	pass: func(_, _, queries int) [][]int {
		op := make([]int, queries)
		for i := range op {
			op[i] = i
		}
		return [][]int{op}
	},
}

func genOLAP(seed int64) ([]*table, []*rel) {
	rng := rand.New(rand.NewSource(seed))
	const suppliers, partsPer, linesPer = 100, 80, 4
	partsupp := &table{
		name: "partsupp",
		cols: []column{
			{name: "ps_partkey"}, {name: "ps_suppkey"}, {name: "ps_availqty"},
		},
		cluster: []string{"ps_partkey", "ps_suppkey"},
		indices: []index{{name: "ps_sk", key: []string{"ps_suppkey"}, include: []string{"ps_partkey", "ps_availqty"}}},
	}
	lineitem := &table{
		name: "lineitem",
		cols: []column{
			{name: "l_orderkey"}, {name: "l_partkey"}, {name: "l_suppkey"},
			{name: "l_quantity"}, {name: "l_linestatus", kind: kindString, width: 1},
		},
		cluster: []string{"l_orderkey"},
		indices: []index{{name: "li_sk", key: []string{"l_suppkey"}, include: []string{"l_partkey", "l_quantity", "l_linestatus"}}},
	}
	for s := int64(0); s < suppliers; s++ {
		for k := int64(0); k < partsPer; k++ {
			part := (s*partsPer + k) % (suppliers * partsPer / 2)
			partsupp.rows = append(partsupp.rows, []any{part, s, rng.Int63n(90) + 10})
			for l := 0; l < linesPer; l++ {
				status := "O"
				if rng.Intn(3) == 0 {
					status = "F"
				}
				lineitem.rows = append(lineitem.rows, []any{rng.Int63n(1_000_000), part, s, rng.Int63n(50) + 1, status})
			}
		}
	}

	// Example 1 (§3): two car catalogs and a rating table.
	const catalogRows, makes, years, cities, colors = 20_000, 40, 25, 50, 10
	catalog1 := &table{
		name: "catalog1",
		cols: []column{
			{name: "c1_make"}, {name: "c1_year"}, {name: "c1_city"}, {name: "c1_color"},
			{name: "c1_sellreason", kind: kindString, width: 30},
		},
		cluster: []string{"c1_year"},
	}
	catalog2 := &table{
		name: "catalog2",
		cols: []column{
			{name: "c2_make"}, {name: "c2_year"}, {name: "c2_city"}, {name: "c2_color"}, {name: "c2_breakdowns"},
		},
		cluster: []string{"c2_make"},
	}
	rating := &table{
		name: "rating",
		cols: []column{
			{name: "r_make"}, {name: "r_year"}, {name: "r_rating"},
			{name: "r_notes", kind: kindString, width: 20},
		},
		cluster: []string{"r_make", "r_year"},
		indices: []index{{name: "rt_make", key: []string{"r_make"}, include: []string{"r_year", "r_rating"}}},
	}
	for i := 0; i < catalogRows; i++ {
		catalog1.rows = append(catalog1.rows, []any{
			rng.Int63n(makes), rng.Int63n(years), rng.Int63n(cities), rng.Int63n(colors),
			"reason-text-padding-xxxxxxxxxx",
		})
		catalog2.rows = append(catalog2.rows, []any{
			rng.Int63n(makes), rng.Int63n(years), rng.Int63n(cities), rng.Int63n(colors), rng.Int63n(20),
		})
	}
	for m := int64(0); m < makes; m++ {
		for y := int64(0); y < years; y++ {
			rating.rows = append(rating.rows, []any{m, y, rng.Int63n(10), "note-padding-xxxxxxx"})
		}
	}

	psli := [][2]string{{"ps_suppkey", "l_suppkey"}, {"ps_partkey", "l_partkey"}}
	// Q1, Experiment A1: li_sk supplies the l_suppkey prefix.
	q1 := scan("lineitem").project("l_suppkey", "l_partkey").orderBy("l_suppkey", "l_partkey")
	// Q2, Experiment A4: per-(supplier, part) lineitem count.
	q2 := scan("partsupp").join(scan("lineitem"), psli...).
		groupBy([]string{"ps_suppkey", "ps_partkey", "ps_availqty"}, agg{name: "line_count", fn: aggCount, arg: "l_partkey"}).
		orderBy("ps_suppkey", "ps_partkey")
	// Q3, Experiment B1: parts whose open quantity exceeds the stock.
	q3 := scan("partsupp").join(scan("lineitem").filter(cond{col: "l_linestatus", op: opEq, lit: "O"}), psli...).
		groupBy([]string{"ps_availqty", "ps_partkey", "ps_suppkey"}, agg{name: "total_qty", fn: aggSum, arg: "l_quantity"}).
		filter(cond{col: "total_qty", op: opGt, other: "ps_availqty"}).
		orderBy("ps_partkey")
	// Example 1: the consolidation query, a 3-way merge join.
	ex1 := scan("catalog1").
		join(scan("catalog2"), [2]string{"c1_city", "c2_city"}, [2]string{"c1_make", "c2_make"},
			[2]string{"c1_year", "c2_year"}, [2]string{"c1_color", "c2_color"}).
		join(scan("rating"), [2]string{"c1_make", "r_make"}, [2]string{"c1_year", "r_year"}).
		project("c1_make", "c1_year", "c1_city", "c1_color", "c1_sellreason", "c2_breakdowns", "r_rating").
		orderBy("c1_make", "c1_year", "c1_color", "c1_city", "c1_sellreason", "c2_breakdowns", "r_rating")
	return []*table{partsupp, lineitem, catalog1, catalog2, rating}, []*rel{q1, q2, q3, ex1}
}

// topkServe is a serving mix on one table clustered on g. Nine ops in ten
// are `ORDER BY g, v LIMIT 10`, answered by the first partial-sort segment;
// one in ten is `ORDER BY v, pad LIMIT 100`, a full spilling sort. Two
// clients share a 2-wide admission gate and a sort-memory pool of 1.5 times
// one sort's ask, so concurrent sorts contend.
const (
	topkRows      = 200_000
	topkSegment   = 2_000 // rows per g value
	topkClustered = 64    // distinct `v >=` literals
	topkFull      = 8     // distinct `g >=` literals
	topkSortBlks  = 64
)

var topkServe = &workload{
	name:    "topk-serve",
	clients: 2,
	config: pyro.Config{
		SortMemoryBlocks:       topkSortBlks,
		GlobalSortMemoryBlocks: topkSortBlks * 3 / 2,
		MaxConcurrentQueries:   2,
	},
	generate: genTopK,
	// Each client cycles through the literals from its own offset, so
	// every run sorts each literal's input about equally often. The full
	// sort's place in the pass is scrambled, so the clients' full sorts
	// overlap by chance, pass by pass, instead of locking into one phase
	// for a whole run.
	pass: func(client, n, _ int) [][]int {
		full := int(mix(uint64(client)<<32|uint64(n)) % 10)
		ops := make([][]int, 10)
		for i := range ops {
			if i == full {
				ops[i] = []int{topkClustered + (n+client*topkFull/2)%topkFull}
			} else {
				ops[i] = []int{(n*9 + i + client*topkClustered/2) % topkClustered}
			}
		}
		return ops
	},
}

func genTopK(seed int64) ([]*table, []*rel) {
	rng := rand.New(rand.NewSource(seed))
	events := &table{
		name:    "events",
		cols:    []column{{name: "g"}, {name: "v"}, {name: "pad"}},
		cluster: []string{"g"},
	}
	// v is a permutation, so (g, v) and (v, pad) are keys and no LIMIT
	// cuts through a tie.
	perm := rng.Perm(topkRows)
	for i := 0; i < topkRows; i++ {
		events.rows = append(events.rows, []any{int64(i / topkSegment), int64(perm[i]), int64(i)})
	}
	var queries []*rel
	// The `v >=` literals are spread evenly below topkRows/2, one at a
	// random place in each stratum, so at least half of every segment
	// passes and the first segment answers the LIMIT. The `g >=` literals
	// are 0..7, so the full sorts keep 93% to 100% of the rows whatever
	// the seed.
	const stratum = topkRows / 2 / topkClustered
	for i := 0; i < topkClustered; i++ {
		lit := int64(i*stratum + rng.Intn(stratum))
		queries = append(queries, scan("events").filter(cond{col: "v", op: opGe, lit: lit}).
			orderBy("g", "v").limitTo(10))
	}
	for lit := int64(0); lit < topkFull; lit++ {
		queries = append(queries, scan("events").filter(cond{col: "g", op: opGe, lit: lit}).
			orderBy("v", "pad").limitTo(100))
	}
	return []*table{events}, queries
}

// adhocPlan runs distinct 4-way join-group-order queries over small
// tables, so the optimizer, not the sort, does most of the work. Each pass
// runs adhocQueries queries, four times the plan cache's 256 entries, so
// the cache's LRU order evicts every query before it comes round again.
const (
	adhocQueries = 1024
	adhocRows    = 100
	adhocAttrs   = 8
	adhocDomain  = 10
)

var adhocPlan = &workload{
	name:     "adhoc-plan",
	clients:  1,
	config:   pyro.Config{},
	generate: genAdhoc,
	pass: func(_, _, queries int) [][]int {
		ops := make([][]int, queries)
		for i := range ops {
			ops[i] = []int{i}
		}
		return ops
	},
}

func adhocCol(t, a int) string { return fmt.Sprintf("t%d_a%d", t, a) }

func genAdhoc(seed int64) ([]*table, []*rel) {
	rng := rand.New(rand.NewSource(seed))
	var tables []*table
	for t := 0; t < 4; t++ {
		tb := &table{
			name:    fmt.Sprintf("t%d", t),
			cluster: []string{adhocCol(t, t), adhocCol(t, (t+1)%adhocAttrs)},
		}
		ix := index{name: fmt.Sprintf("t%d_ix", t), key: []string{adhocCol(t, (t+2)%adhocAttrs), adhocCol(t, (t+3)%adhocAttrs)}}
		for a := 0; a < adhocAttrs; a++ {
			tb.cols = append(tb.cols, column{name: adhocCol(t, a)})
			if a != (t+2)%adhocAttrs && a != (t+3)%adhocAttrs {
				ix.include = append(ix.include, adhocCol(t, a))
			}
		}
		tb.indices = []index{ix}
		// Every value occurs equally often in every column, so a seed moves
		// rows but not the size of any single-attribute join.
		for r := 0; r < adhocRows; r++ {
			tb.rows = append(tb.rows, make([]any, adhocAttrs))
		}
		for a := 0; a < adhocAttrs; a++ {
			for r, p := range rng.Perm(adhocRows) {
				tb.rows[r][a] = int64(p % adhocDomain)
			}
		}
		tables = append(tables, tb)
	}

	seen := make(map[string]bool)
	var queries []*rel
	for len(queries) < adhocQueries {
		q := scan("t0")
		var firstJoin []int
		for t := 1; t < 4; t++ {
			attrs := rng.Perm(adhocAttrs)[:2+rng.Intn(3)]
			if t == 1 {
				firstJoin = attrs
			}
			on := make([][2]string, len(attrs))
			for i, a := range attrs {
				on[i] = [2]string{adhocCol(t-1, a), adhocCol(t, a)}
			}
			q = q.join(scan(fmt.Sprintf("t%d", t)), on...)
		}
		group := make([]string, len(firstJoin))
		for i, j := range rng.Perm(len(firstJoin)) {
			group[i] = adhocCol(0, firstJoin[j])
		}
		order := make([]string, len(firstJoin))
		for i, j := range rng.Perm(len(firstJoin)) {
			order[i] = adhocCol(0, firstJoin[j])
		}
		q = q.groupBy(group, agg{name: "n", fn: aggCount}, agg{name: "total", fn: aggSum, arg: adhocCol(3, 0)}).
			orderBy(order...)
		if s := q.String(); !seen[s] {
			seen[s] = true
			queries = append(queries, q)
		}
	}
	return tables, queries
}

// load creates tables and their indices in db.
func load(db *pyro.Database, tables []*table) error {
	for _, t := range tables {
		cols := make([]pyro.Column, len(t.cols))
		for i, c := range t.cols {
			cols[i] = pyro.Column{Name: c.name, Type: pyro.Int64, Width: c.width}
			if c.kind == kindString {
				cols[i].Type = pyro.String
			}
		}
		if err := db.CreateTable(t.name, cols, t.cluster, t.rows); err != nil {
			return fmt.Errorf("create table %s: %w", t.name, err)
		}
		for _, ix := range t.indices {
			if err := db.CreateIndex(ix.name, t.name, ix.key, ix.include); err != nil {
				return fmt.Errorf("create index %s: %w", ix.name, err)
			}
		}
	}
	return nil
}
