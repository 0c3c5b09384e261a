package pyro

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pyro/internal/storage"
)

// queryAll runs plan through a cursor, returning every row and the
// query's ExecStats.
func queryAll(t testing.TB, db *Database, plan *Plan, opts ...ExecOption) ([][]any, ExecStats) {
	t.Helper()
	cur, err := db.Query(context.Background(), plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]any{}
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return rows, cur.Stats()
}

// TestTopKCorrectness: LIMIT over ORDER BY returns the first K rows of the
// full ordering.
func TestTopKCorrectness(t *testing.T) {
	db := openTestDB(t)
	full, err := db.Optimize(db.Scan("items").OrderBy("i_qty", "i_order"))
	if err != nil {
		t.Fatal(err)
	}
	fullRows, _ := queryAll(t, db, full)
	topk, err := db.Optimize(db.Scan("items").OrderBy("i_qty", "i_order").Limit(25))
	if err != nil {
		t.Fatal(err)
	}
	kRows, _ := queryAll(t, db, topk)
	if len(kRows) != 25 {
		t.Fatalf("top-k rows = %d, want 25", len(kRows))
	}
	for i := range kRows {
		for j := range kRows[i] {
			if kRows[i][j] != fullRows[i][j] {
				t.Fatalf("top-k row %d differs from full ordering", i)
			}
		}
	}
}

// TestTopKEarlyTermination: with a clustering prefix available, the Top-K
// plan uses a pipelined partial sort and touches far less data than the
// full-sort alternative (the paper's §3.1 benefit 2).
func TestTopKEarlyTermination(t *testing.T) {
	db := Open(Config{SortMemoryBlocks: 64})
	var rows [][]any
	for i := 0; i < 50_000; i++ {
		rows = append(rows, []any{int64(i / 500), int64(i * 7 % 10_000), int64(i)})
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	q := db.Scan("big").OrderBy("g", "v").Limit(10)

	partial, err := db.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	_, partialStats := queryAll(t, db, partial)
	ioPartial := partialStats.IO.PageReads

	fullSort, err := db.Optimize(q, WithoutPartialSort())
	if err != nil {
		t.Fatal(err)
	}
	_, fullStats := queryAll(t, db, fullSort)
	ioFull := fullStats.IO.PageReads

	// The partial-order plan stops after the first segment; without
	// partial sorts the plan must read the whole table (plus any run files
	// of its sort) before emitting anything.
	if ioPartial*5 > ioFull {
		t.Fatalf("early termination missing: partial read %d pages, full %d", ioPartial, ioFull)
	}
}

func TestLimitValidation(t *testing.T) {
	db := openTestDB(t)
	if err := db.Scan("orders").Limit(-1).Err(); err == nil {
		t.Fatal("negative limit should error")
	}
	plan, err := db.Optimize(db.Scan("orders").Limit(0))
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := queryAll(t, db, plan); len(rows) != 0 {
		t.Fatalf("limit 0: %d rows", len(rows))
	}
	// Limit larger than input returns everything.
	plan2, err := db.Optimize(db.Scan("orders").Limit(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if rows2, _ := queryAll(t, db, plan2); len(rows2) != 200 {
		t.Fatalf("oversized limit: %d rows", len(rows2))
	}
}

// topNDB builds a 3 000-row table clustered on g (6 segments of 500 rows,
// the first with a NULL g) whose v repeats heavily and is sometimes NULL,
// so ORDER BY v cuts through ties and pad shows how they were broken.
func topNDB(t *testing.T, governed bool) *Database {
	t.Helper()
	cfg := Config{SortMemoryBlocks: 64}
	if !governed {
		cfg.GlobalSortMemoryBlocks = -1
	}
	db := Open(cfg)
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	rows := make([][]any, 3000)
	for i := range rows {
		var g, v any = int64(i / 500), int64(i * 7 % 50)
		if i < 500 {
			g = nil
		}
		if i%11 == 0 {
			v = nil
		}
		rows[i] = []any{g, v, int64(i)}
	}
	if err := db.CreateTable("t", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// compareNullsFirst orders two result values of one Int64 column the way
// the engine does: NULL before every value.
func compareNullsFirst(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	return cmp.Compare(a.(int64), b.(int64))
}

// TestTopNMatchesStableSortAcrossConfigs is the end-to-end differential
// test of the Top-N enforcer: over unordered input (with and without a
// filter's selection vectors) and over input with a given prefix, every
// planned TopN returns exactly the first K rows of a stable sort of the
// table's scan order — at batch sizes 1/64/1024, sort parallelism 1 and
// 4, and with the memory governor on and off. Every run does zero run
// I/O, leaves no temp file behind, and a governed run asks for K rows'
// worth of blocks, not M.
func TestTopNMatchesStableSortAcrossConfigs(t *testing.T) {
	cols := map[string]int{"g": 0, "v": 1, "pad": 2}
	queries := []struct {
		name  string
		order []string
		build func(db *Database) *Query
	}{
		{"unordered", []string{"v"}, func(db *Database) *Query { return db.Scan("t") }},
		{"unordered-filtered", []string{"v", "g"}, func(db *Database) *Query {
			return db.Scan("t").Filter(Ge(Col("pad"), Int(5)))
		}},
		{"given-prefix", []string{"g", "v"}, func(db *Database) *Query { return db.Scan("t") }},
	}
	for _, governed := range []bool{false, true} {
		db := topNDB(t, governed)
		for _, q := range queries {
			scanPlan, err := db.Optimize(q.build(db))
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := queryAll(t, db, scanPlan)
			slices.SortStableFunc(ref, func(a, b []any) int {
				for _, c := range q.order {
					if r := compareNullsFirst(a[cols[c]], b[cols[c]]); r != 0 {
						return r
					}
				}
				return 0
			})
			for _, k := range []int64{1, 10, 100} {
				plan, err := db.Optimize(q.build(db).OrderBy(q.order...).Limit(k))
				if err != nil {
					t.Fatal(err)
				}
				if ex := plan.Explain(); !strings.HasPrefix(ex, "TopN") ||
					strings.Contains(ex, "partial") != (q.name == "given-prefix") {
					t.Fatalf("%s K=%d: expected a TopN plan:\n%s", q.name, k, ex)
				}
				for _, batch := range []int{1, 64, 1024} {
					for _, par := range []int{1, 4} {
						at := fmt.Sprintf("governed=%v/%s/K=%d/batch=%d/par=%d", governed, q.name, k, batch, par)
						got, st := queryAll(t, db, plan, WithExecBatchSize(batch), WithSortParallelism(par))
						if !reflect.DeepEqual(got, ref[:k]) {
							t.Fatalf("%s: rows\n%v\nwant\n%v", at, got, ref[:k])
						}
						if st.IO.RunTotal() != 0 || len(st.Sorts) != 1 || st.Sorts[0].RunsGenerated != 0 {
							t.Fatalf("%s: TopN spilled: io %+v sorts %+v", at, st.IO, st.Sorts)
						}
						// K rows of three Int64 columns at Tuple.MemSize
						// (24 + 3·32 bytes), in 4 KiB blocks.
						wantGrant := 0
						if governed {
							wantGrant = int((k*120 + 4095) / 4096)
						}
						if st.GrantedBlocks != wantGrant {
							t.Fatalf("%s: granted %d blocks, want %d", at, st.GrantedBlocks, wantGrant)
						}
						storage.AssertNoLeaks(t, db.disk)
					}
				}
			}
		}
	}
}
