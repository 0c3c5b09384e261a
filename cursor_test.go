package pyro

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pyro/internal/storage"
)

// segmentedDB builds a table of n rows clustered on g with rows/segSize
// partial-sort segments, the shape whose OrderBy(g, v) plan is a pipelined
// MRS over the clustering prefix. Shared with BenchmarkTimeToFirstRow so
// test and benchmark measure the identical workload.
func segmentedDB(t testing.TB, n, segSize int) *Database {
	t.Helper()
	db := Open(Config{SortMemoryBlocks: 64})
	t.Cleanup(func() { storage.AssertNoLeaks(t, db.disk) })
	rows := make([][]any, n)
	for i := 0; i < n; i++ {
		rows[i] = []any{int64(i / segSize), int64(i * 7 % 10_000), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCursorStreamsAndScans(t *testing.T) {
	db := openTestDB(t)
	plan, err := db.Optimize(db.Scan("items").OrderBy("i_qty", "i_order"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}

	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cols := cur.Columns(); !reflect.DeepEqual(cols, want.Columns) {
		t.Fatalf("Columns = %v, want %v", cols, want.Columns)
	}
	var got [][]any
	for cur.Next() {
		var order, line, qty int64
		var price float64
		if err := cur.Scan(&order, &line, &qty, &price); err != nil {
			t.Fatal(err)
		}
		row := cur.Row()
		if row[0] != order || row[1] != line || row[2] != qty || row[3] != price {
			t.Fatalf("Scan and Row disagree: %v vs (%d,%d,%d,%g)", row, order, line, qty, price)
		}
		got = append(got, row)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Data) {
		t.Fatalf("cursor produced %d rows, Execute %d; streams disagree", len(got), len(want.Data))
	}

	st := cur.Stats()
	if st.Rows != int64(len(want.Data)) {
		t.Fatalf("Stats.Rows = %d, want %d", st.Rows, len(want.Data))
	}
	if st.TimeToFirstRow <= 0 || st.Elapsed < st.TimeToFirstRow {
		t.Fatalf("implausible timings: first row %v, elapsed %v", st.TimeToFirstRow, st.Elapsed)
	}
	if len(st.Sorts) == 0 {
		t.Fatal("ORDER BY plan reported no sort enforcers")
	}
	// Exhaustion auto-closed the cursor; both are still safe.
	if cur.Next() {
		t.Fatal("Next after exhaustion returned true")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorScanValidation(t *testing.T) {
	db := openTestDB(t)
	plan, err := db.Optimize(db.Scan("orders").OrderBy("o_id"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	if err := cur.Scan(new(int64)); err == nil {
		t.Fatal("Scan before Next should error")
	}
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	if err := cur.Scan(new(int64)); err == nil {
		t.Fatal("arity mismatch should error")
	}
	var id int64
	var status string
	if err := cur.Scan(&id, new(string), &status); err == nil {
		t.Fatal("type mismatch (string for int column) should error")
	}
	var cust, anyStatus any
	if err := cur.Scan(&id, &cust, &anyStatus); err != nil {
		t.Fatal(err)
	}
	if id != 0 || cust != int64(0) || anyStatus != "status-A" {
		t.Fatalf("scanned (%d, %v, %v), want first orders row", id, cust, anyStatus)
	}
}

// TestCursorEarlyCloseAbandonsWork is the tentpole's acceptance test: a
// Top-K consumer that closes the cursor after k rows must sort strictly
// fewer MRS segments and read strictly fewer pages than a full drain of
// the same plan, because closing propagates down the operator tree and
// abandons uncollected segments and unread input.
func TestCursorEarlyCloseAbandonsWork(t *testing.T) {
	db := segmentedDB(t, 50_000, 500) // 100 segments
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "partial") {
		t.Fatalf("expected a partial-sort plan, got:\n%s", plan.Explain())
	}

	// Reference: drain everything through the cursor.
	full, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for full.Next() {
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	fullStats := full.Stats()
	if len(fullStats.Sorts) != 1 {
		t.Fatalf("expected one sort enforcer, got %d", len(fullStats.Sorts))
	}

	// Top-K: take k rows, close, keep the frozen stats.
	const k = 10
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !cur.Next() {
			t.Fatalf("row %d: %v", i, cur.Err())
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	early := cur.Stats()

	if early.Rows != k {
		t.Fatalf("early cursor rows = %d, want %d", early.Rows, k)
	}
	if es, fs := early.Sorts[0].Segments, fullStats.Sorts[0].Segments; es >= fs {
		t.Fatalf("early close sorted %d segments, full drain %d — want strictly fewer", es, fs)
	}
	if er, fr := early.IO.PageReads, fullStats.IO.PageReads; er >= fr {
		t.Fatalf("early close read %d pages, full drain %d — want strictly fewer", er, fr)
	}
	if ei, fi := early.Sorts[0].TuplesIn, fullStats.Sorts[0].TuplesIn; ei >= fi {
		t.Fatalf("early close consumed %d input tuples, full drain %d — want strictly fewer", ei, fi)
	}
	t.Logf("early close after %d rows: %d/%d segments sorted, %d/%d pages read, %d/%d tuples consumed",
		k, early.Sorts[0].Segments, fullStats.Sorts[0].Segments,
		early.IO.PageReads, fullStats.IO.PageReads,
		early.Sorts[0].TuplesIn, fullStats.Sorts[0].TuplesIn)
}

// TestCursorEarlyCloseAbandonsSpillRuns: closing mid-merge of a spilled
// sort must drop the unread runs with their arenas — no files survive, and
// run-page reads stay strictly below the full drain's.
func TestCursorEarlyCloseAbandonsSpillRuns(t *testing.T) {
	db := segmentedDB(t, 40_000, 20_000) // 2 oversized segments at 8 blocks
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}

	full, err := db.Query(context.Background(), plan, WithSortMemoryBlocks(8))
	if err != nil {
		t.Fatal(err)
	}
	for full.Next() {
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	fullStats := full.Stats()
	if fullStats.Sorts[0].RunsGenerated == 0 {
		t.Fatal("workload must spill for this test to mean anything")
	}

	cur, err := db.Query(context.Background(), plan, WithSortMemoryBlocks(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !cur.Next() {
			t.Fatalf("row %d: %v", i, cur.Err())
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	early := cur.Stats()
	if er, fr := early.IO.RunPageReads, fullStats.IO.RunPageReads; er >= fr {
		t.Fatalf("early close read %d run pages, full drain %d — unread spill runs were not abandoned", er, fr)
	}
}

func TestCursorContextCancellation(t *testing.T) {
	db := segmentedDB(t, 50_000, 500)
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled context: Query fails before doing any work.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(canceled, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query on canceled ctx returned %v, want context.Canceled", err)
	}

	// Cancellation mid-stream: the next Next observes it and the cursor
	// closes itself.
	ctx, cancel2 := context.WithCancel(context.Background())
	cur, err := db.Query(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !cur.Next() {
			t.Fatalf("row %d: %v", i, cur.Err())
		}
	}
	cancel2()
	if cur.Next() {
		t.Fatal("Next after cancellation returned a row")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}

	// Cancellation must also abort a blocking full sort from inside its
	// input-consumption loop: cancel while SRS's Open is running. The
	// abort is polled every few hundred tuples over a 50k-row input, so
	// Query reliably observes it.
	srsPlan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"), WithoutPartialSort())
	if err != nil {
		t.Fatal(err)
	}
	ctx3, cancel3 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cancel3(); close(done) }()
	cur3, err := db.Query(ctx3, srsPlan)
	<-done
	if err == nil {
		// The race went to Open: the sort finished before the cancel
		// landed. The cursor must still fail on its next Next.
		if cur3.Next() {
			cur3.Close()
			t.Fatal("Next after cancellation returned a row")
		}
		err = cur3.Err()
		cur3.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SRS query returned %v, want context.Canceled", err)
	}
}

func TestCursorExecOptionsOverridePerQuery(t *testing.T) {
	db := segmentedDB(t, 50_000, 10_000) // few large segments: radix pays
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	drain := func(opts ...ExecOption) ExecStats {
		t.Helper()
		cur, err := db.Query(context.Background(), plan, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return cur.Stats()
	}

	// Run formation radix-sorts these large segments.
	if drain().Sorts[0].RadixPasses == 0 {
		t.Fatal("run formation did no radix work on large segments")
	}

	// Spill regime: a tiny per-query memory budget forces spilling, and
	// the spill-parallelism override decides which regime forms the runs.
	serial := drain(WithSortMemoryBlocks(8), WithSortSpillParallelism(1))
	if serial.Sorts[0].SpillRunsSerial == 0 || serial.Sorts[0].SpillRunsParallel != 0 {
		t.Fatalf("spill-par 1 should form runs serially: %+v", serial.Sorts[0])
	}
	parallel := drain(WithSortMemoryBlocks(8), WithSortParallelism(2), WithSortSpillParallelism(2))
	if parallel.Sorts[0].SpillRunsParallel == 0 || parallel.Sorts[0].SpillRunsSerial != 0 {
		t.Fatalf("spill-par 2 should form runs on workers: %+v", parallel.Sorts[0])
	}
}

// TestConcurrentCursors runs several cursors over one Database (and one
// shared Plan) at once; `make race` gates the storage and spill layers
// underneath. Spilling is forced so concurrent arenas are exercised.
func TestConcurrentCursors(t *testing.T) {
	db := segmentedDB(t, 20_000, 10_000)
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	results := make([][][]any, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur, err := db.Query(context.Background(), plan, WithSortMemoryBlocks(8))
			if err != nil {
				errs[w] = err
				return
			}
			defer cur.Close()
			for cur.Next() {
				results[w] = append(results[w], cur.Row())
			}
			errs[w] = cur.Err()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("cursor %d: %v", w, errs[w])
		}
		if len(results[w]) != len(want.Data) {
			t.Fatalf("cursor %d produced %d rows, want %d", w, len(results[w]), len(want.Data))
		}
	}
	// Spot-check content equality on the key columns (ties on (g, v) may
	// legitimately order pad differently across runs).
	for w := 0; w < workers; w++ {
		for i, row := range results[w] {
			if row[0] != want.Data[i][0] || row[1] != want.Data[i][1] {
				t.Fatalf("cursor %d row %d = %v, want key %v", w, i, row, want.Data[i][:2])
			}
		}
	}
}

// TestPerQueryIOAttribution pins the per-query ledger taps: cursors
// running concurrently on one Database report exact, disjoint I/O — each
// equals the solo run of the same plan transfer for transfer, and the
// device-level delta is exactly their sum. (`make race` gates the tap
// plumbing underneath.) Spilling is forced so arena taps are exercised;
// serial sort knobs keep each cursor's I/O bit-deterministic.
func TestPerQueryIOAttribution(t *testing.T) {
	db := segmentedDB(t, 20_000, 10_000)
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	opts := []ExecOption{WithSortMemoryBlocks(8), WithSortParallelism(1), WithSortSpillParallelism(1)}

	drain := func() ExecStats {
		t.Helper()
		cur, err := db.Query(context.Background(), plan, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return cur.Stats()
	}
	want := drain().IO
	if want.RunTotal() == 0 {
		t.Fatal("workload must spill for arena taps to be exercised")
	}

	before := db.IOStats()
	const workers = 4
	stats := make([]ExecStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur, err := db.Query(context.Background(), plan, opts...)
			if err != nil {
				errs[w] = err
				return
			}
			defer cur.Close()
			for cur.Next() {
			}
			errs[w] = cur.Err()
			stats[w] = cur.Stats()
		}(w)
	}
	wg.Wait()

	var sum IOStats
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("cursor %d: %v", w, errs[w])
		}
		if stats[w].IO != want {
			t.Fatalf("cursor %d IO = %+v, want the solo run's exact %+v — attribution overlapped",
				w, stats[w].IO, want)
		}
		sum.Add(stats[w].IO)
	}
	if delta := db.IOStats().Sub(before); delta != sum {
		t.Fatalf("device delta %+v != sum of per-query taps %+v", delta, sum)
	}
}

func TestQueryRejectsForeignPlan(t *testing.T) {
	db := openTestDB(t)
	other := openTestDB(t)
	plan, err := other.Optimize(other.Scan("orders"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), plan); err == nil {
		t.Fatal("Query accepted a plan from a different database")
	}
	if _, err := db.Query(context.Background(), nil); err == nil {
		t.Fatal("Query accepted a nil plan")
	}
}

// TestWithHeuristicOrderIndependence pins the WithHeuristic fix: ablation
// options must survive regardless of which side of WithHeuristic they
// appear on.
func TestWithHeuristicOrderIndependence(t *testing.T) {
	db := openTestDB(t)
	q := db.Scan("orders").Join(db.Scan("items"), Eq(Col("o_id"), Col("i_order"))).
		OrderBy("o_cust")

	after, err := db.Optimize(q, WithoutHashJoin(), WithHeuristic(PYROE))
	if err != nil {
		t.Fatal(err)
	}
	before, err := db.Optimize(q, WithHeuristic(PYROE), WithoutHashJoin())
	if err != nil {
		t.Fatal(err)
	}
	if after.Explain() != before.Explain() {
		t.Fatalf("option order changed the plan:\n--- ablation last:\n%s\n--- ablation first:\n%s",
			after.Explain(), before.Explain())
	}
	if strings.Contains(after.Explain(), "HashJoin") {
		t.Fatalf("WithoutHashJoin was dropped:\n%s", after.Explain())
	}

	// The heuristic's own implied defaults still apply: PYRO disables
	// partial sorts whether or not other options ran first.
	sorted := db.Scan("items").OrderBy("i_order", "i_qty")
	pyroPlan, err := db.Optimize(sorted, WithoutHashAgg(), WithHeuristic(PYRO))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pyroPlan.Explain(), "partial") {
		t.Fatalf("PYRO heuristic should disable partial sorts:\n%s", pyroPlan.Explain())
	}

	// Last heuristic wins outright: an earlier PYRO must not leave its
	// implied no-partial-sort flag behind when PYRO-O replaces it.
	lastWins, err := db.Optimize(sorted, WithHeuristic(PYRO), WithHeuristic(PYROO))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Optimize(sorted, WithHeuristic(PYROO))
	if err != nil {
		t.Fatal(err)
	}
	if lastWins.Explain() != plain.Explain() {
		t.Fatalf("stale heuristic defaults leaked through:\n--- PYRO then PYRO-O:\n%s\n--- PYRO-O alone:\n%s",
			lastWins.Explain(), plain.Explain())
	}
}
