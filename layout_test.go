package pyro

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// spillDB builds a workload whose ORDER BY must spill: 12k rows shuffled
// by a multiplicative hash, 512-byte pages, an 8-block sort budget.
func spillDB(t *testing.T) *Database {
	t.Helper()
	db := Open(Config{PageSize: 512, SortMemoryBlocks: 8})
	rows := make([][]any, 12_000)
	for i := range rows {
		rows[i] = []any{int64(i), int64((i * 2654435761) % 12_000), fmt.Sprintf("pad-%d", i%97)}
	}
	if err := db.CreateTable("t", []Column{
		{Name: "a", Type: Int64},
		{Name: "b", Type: Int64},
		{Name: "s", Type: String},
	}, ClusterOn("a"), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEntryLayoutGoldenMatrix is the end-to-end pin of the spill path and
// its one entry layout (tuple spill runs): across sort parallelism 1/2/4/8
// and executor batch sizes 1/64/1024, a spilling ORDER BY returns the same
// rows in the same order with the same per-query I/O attribution and the
// same sort work counters as the serial, row-at-a-time reference.
func TestEntryLayoutGoldenMatrix(t *testing.T) {
	db := spillDB(t)
	plan, err := db.Optimize(db.Scan("t").OrderBy("b", "a"))
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		rows  [][]any
		sorts []SortStats
		io    IOStats
	}
	drain := func(par, batch int) result {
		t.Helper()
		cur, err := db.Query(context.Background(), plan,
			WithSortParallelism(par),
			WithSortSpillParallelism(par),
			WithExecBatchSize(batch))
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var r result
		for cur.Next() {
			r.rows = append(r.rows, cur.Row())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		st := cur.Stats()
		r.sorts, r.io = st.Sorts, st.IO
		return r
	}

	// Reference: serial, row-at-a-time.
	ref := drain(1, 1)
	if len(ref.sorts) != 1 || ref.sorts[0].RunsGenerated == 0 {
		t.Fatalf("workload must spill for this test to mean anything: %+v", ref.sorts)
	}
	if ref.io.RunTotal() == 0 {
		t.Fatalf("spilling sort attributed no run I/O to the query: %+v", ref.io)
	}
	for _, par := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 64, 1024} {
			name := fmt.Sprintf("par%d-batch%d", par, batch)
			r := drain(par, batch)
			if !reflect.DeepEqual(r.rows, ref.rows) {
				t.Fatalf("%s: output diverges from the serial reference", name)
			}
			// Every counter and the per-query I/O attribution are
			// parallelism- and batch-invariant.
			if !reflect.DeepEqual(r.sorts, ref.sorts) {
				t.Fatalf("%s: sort counters vary:\n got %+v\nwant %+v", name, r.sorts, ref.sorts)
			}
			if r.io != ref.io {
				t.Fatalf("%s: IO attribution varies: got %+v want %+v", name, r.io, ref.io)
			}
		}
	}
}
