package pyro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pyro/internal/storage"
	"pyro/internal/storage/faulttest"
)

// chaosDB builds a compact database whose workloads exercise every fault
// class: a clustered table whose sorts overflow the deliberately small sort
// budget (spill-run reads and writes), plus a join partner. The admission
// gate is enabled so every chaos run also checks that failed queries return
// their slot.
func chaosDB(t testing.TB) *Database {
	t.Helper()
	// Sorts charge a row at its page-format size (31 bytes here), so 3
	// blocks hold ~400 rows: the full sort and each 1 000-row segment of
	// the partial sort spill. (At 2 blocks the cost model's merge-pass
	// logarithm, base M−1, degenerates.)
	db := Open(Config{
		SortMemoryBlocks:     3,
		MaxConcurrentQueries: 4,
	})
	const n, segSize = 4000, 1000
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
	small := make([][]any, 500)
	for i := range small {
		small[i] = []any{int64(i), int64((i * 13) % 1000)}
	}
	if err := db.CreateTable("small", []Column{
		{Name: "k", Type: Int64},
		{Name: "w", Type: Int64},
	}, ClusterOn("k"), small); err != nil {
		t.Fatal(err)
	}
	return db
}

// chaosScenario is one arm of the fault-sweep plan matrix.
type chaosScenario struct {
	name   string
	build  func(db *Database) *Query
	limit  int    // rows to read before closing (0 = drain everything)
	shape  string // when set, the plan signature the arm must run
	spills bool   // the arm's sort must write runs, so run pages take faults
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		// Full sort on an unclustered column: run formation, spilling and
		// merging all on the critical path.
		{name: "spill-sort", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("v")
		}, spills: true},
		// Pipelined partial sort consumed Top-K style: the cursor closes
		// after a prefix, so later segments — and the fault points inside
		// them — are legitimately never reached.
		{name: "topk-early-close", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("g", "v")
		}, limit: 16, spills: true},
		// Top-K on an unclustered order: a bounded Top-N enforcer reads the
		// whole table and writes no run page, so every fault point is a
		// table-page read inside its heap loop.
		{name: "topn-unclustered", build: func(db *Database) *Query {
			return db.Scan("big").OrderBy("v", "pad").Limit(50)
		}, shape: "TopN>TableScan"},
		// Equality join on non-clustered columns (a hash join under the
		// default heuristic) with a sorted output on top; the ~200 joined
		// rows sort in memory.
		{name: "hash-join", build: func(db *Database) *Query {
			return db.Scan("big").Join(db.Scan("small"), Eq(Col("v"), Col("k"))).OrderBy("pad")
		}},
	}
}

// runChaosQuery executes plan and returns the rows read (rendered, limited
// to limit when nonzero), the query's tap-attributed I/O and its first
// error from any stage — Query, Next or Close.
func runChaosQuery(db *Database, plan *Plan, batch, limit int) ([]string, IOStats, error) {
	cur, err := db.Query(context.Background(), plan, WithExecBatchSize(batch))
	if err != nil {
		return nil, IOStats{}, err
	}
	var rows []string
	for cur.Next() {
		rows = append(rows, fmt.Sprint(cur.Row()))
		if limit > 0 && len(rows) >= limit {
			break
		}
	}
	if cerr := cur.Close(); cerr != nil && cur.Err() == nil {
		return rows, cur.Stats().IO, cerr
	}
	return rows, cur.Stats().IO, cur.Err()
}

// checkServingRestored asserts the invariants every chaos run must restore,
// success or failure: no leaked temp files or arenas, an empty sort-memory
// pool and an empty admission gate.
func checkServingRestored(t *testing.T, db *Database, at string) {
	t.Helper()
	storage.AssertNoLeaks(leakLabel{TB: t, at: at}, db.disk)
	s := db.ServingStats()
	if s.Governor.GrantedBlocks != 0 || s.Governor.LiveGrants != 0 {
		t.Errorf("%s: sort-memory pool not restored: %d blocks across %d grants still out",
			at, s.Governor.GrantedBlocks, s.Governor.LiveGrants)
	}
	if s.Admission.Live != 0 {
		t.Errorf("%s: admission gate not restored: %d slots still held", at, s.Admission.Live)
	}
}

// leakLabel prefixes AssertNoLeaks failures with the fault point that
// produced them, so a sweep failure names its point.
type leakLabel struct {
	storage.TB
	at string
}

func (l leakLabel) Errorf(format string, args ...any) {
	l.TB.Errorf("%s: "+format, append([]any{l.at}, args...)...)
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosFaultSweep is the fault-sweep harness: for every scenario of the
// plan matrix at chunked batch sizes 1, 64 and 1024, it observes the
// workload's page transfers per fault class, enumerates fault points across
// them (every transfer under PYRO_CHAOS_FULL=1, a strided sample otherwise,
// plus a panic-mode point per class), injects each one and asserts the
// robustness contract: the fault surfaces as an error — never a panic or a
// hang — nothing leaks, pool and gate are restored, and an immediate re-run
// is identical to the no-fault baseline.
func TestChaosFaultSweep(t *testing.T) {
	perClass := 3
	if os.Getenv("PYRO_CHAOS_FULL") != "" {
		perClass = 0
	}
	db := chaosDB(t)
	for _, sc := range chaosScenarios() {
		plan, err := db.Optimize(sc.build(db))
		if err != nil {
			t.Fatal(err)
		}
		if sc.shape != "" && plan.inner.Signature() != sc.shape {
			t.Fatalf("%s: planned %s, want %s:\n%s", sc.name, plan.inner.Signature(), sc.shape, plan.Explain())
		}
		for _, batch := range []int{1, 64, 1024} {
			// An early-closed pipelined query abandons in-flight read-ahead
			// and spill work at whatever point Close catches it, so only a
			// full drain has scheduling-independent I/O totals to pin.
			exactIO := sc.limit == 0
			t.Run(fmt.Sprintf("%s/batch=%d", sc.name, batch), func(t *testing.T) {
				baseRows, baseIO, err := runChaosQuery(db, plan, batch, sc.limit)
				if err != nil {
					t.Fatalf("no-fault baseline failed: %v", err)
				}
				if sc.spills && baseIO.RunPageWrites == 0 {
					t.Fatalf("baseline wrote no run page; the arm must spill:\n%s", plan.Explain())
				}
				counts, err := faulttest.Observe(db.disk, func() error {
					rows, io, err := runChaosQuery(db, plan, batch, sc.limit)
					if err == nil && (!sameRows(rows, baseRows) || (exactIO && io != baseIO)) {
						return fmt.Errorf("observed run diverged from baseline: %d rows io %+v, want %d rows io %+v",
							len(rows), io, len(baseRows), baseIO)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				points := faulttest.Enumerate(counts, perClass)
				for _, c := range storage.FaultClasses {
					if counts[c] > 0 {
						points = append(points, faulttest.Point{Class: c, At: 1 + counts[c]/2, Panic: true})
					}
				}
				if len(points) == 0 {
					t.Fatal("workload hit no fault points at all")
				}
				for _, pt := range points {
					db.disk.SetFaultPlan(pt.Plan())
					rows, _, err := runChaosQuery(db, plan, batch, sc.limit)
					triggered := db.disk.FaultPlan().Triggered()
					db.disk.SetFaultPlan(nil)

					if triggered > 0 {
						if err == nil {
							// An early close may abandon the faulted work
							// (a run written ahead that was never needed);
							// success is then correct — but only with the
							// right rows and nothing leaked.
							if sc.limit == 0 {
								t.Errorf("%v#%d: fault fired but the query reported success", pt, pt.At)
							} else if !sameRows(rows, baseRows) {
								t.Errorf("%v#%d: swallowed fault changed the result", pt, pt.At)
							}
						} else if pt.Panic {
							if !strings.Contains(err.Error(), "panic") {
								t.Errorf("%v#%d: injected panic surfaced without panic context: %v", pt, pt.At, err)
							}
							// Containment preserves the chain: the recovered
							// panic value is the fault error itself.
							if !errors.Is(err, storage.ErrInjectedFault) {
								t.Errorf("%v#%d: contained panic lost the injected-fault cause: %v", pt, pt.At, err)
							}
						} else if !errors.Is(err, storage.ErrInjectedFault) {
							t.Errorf("%v#%d: error lost the injected-fault cause: %v", pt, pt.At, err)
						}
					} else {
						// The workload never reached this transfer (an early
						// close can skip it); the run must be indistinguishable
						// from the baseline.
						if err != nil {
							t.Errorf("%v#%d: unreached fault point still failed: %v", pt, pt.At, err)
						} else if !sameRows(rows, baseRows) {
							t.Errorf("%v#%d: unreached fault point changed the result", pt, pt.At)
						}
					}
					checkServingRestored(t, db, fmt.Sprintf("%v#%d", pt, pt.At))

					// The device is healthy again: the same query must
					// succeed with results and I/O identical to the baseline.
					rerunRows, rerunIO, err := runChaosQuery(db, plan, batch, sc.limit)
					if err != nil {
						t.Fatalf("%v#%d: re-run after fault failed: %v", pt, pt.At, err)
					}
					if !sameRows(rerunRows, baseRows) {
						t.Errorf("%v#%d: re-run rows diverged from baseline", pt, pt.At)
					}
					if exactIO && rerunIO != baseIO {
						t.Errorf("%v#%d: re-run I/O diverged: %+v, want %+v", pt, pt.At, rerunIO, baseIO)
					}
				}
			})
		}
	}
}

// TestChaosTempQuotaENOSPC drives the spilling sort into the temp-space
// quota: the write that would exceed it fails with ErrNoTempSpace, nothing
// leaks, and lifting the quota restores byte-identical execution.
func TestChaosTempQuotaENOSPC(t *testing.T) {
	db := chaosDB(t)
	plan, err := db.Optimize(db.Scan("big").OrderBy("v"))
	if err != nil {
		t.Fatal(err)
	}
	baseRows, baseIO, err := runChaosQuery(db, plan, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	db.disk.SetTempQuotaPages(2)
	_, _, err = runChaosQuery(db, plan, 64, 0)
	if err == nil {
		t.Fatal("spilling sort succeeded under a 2-page temp quota")
	}
	if !errors.Is(err, storage.ErrNoTempSpace) {
		t.Fatalf("quota violation lost its ErrNoTempSpace cause: %v", err)
	}
	checkServingRestored(t, db, "after quota failure")
	db.disk.SetTempQuotaPages(0)
	rows, io, err := runChaosQuery(db, plan, 64, 0)
	if err != nil {
		t.Fatalf("re-run after lifting the quota failed: %v", err)
	}
	if !sameRows(rows, baseRows) || io != baseIO {
		t.Fatalf("re-run after quota diverged from baseline (io %+v, want %+v)", io, baseIO)
	}
}

// TestQueryTimeoutAbortsSort pins Config.QueryTimeout: a sort too slow for
// the configured budget surfaces context.DeadlineExceeded and releases
// everything it held.
func TestQueryTimeoutAbortsSort(t *testing.T) {
	db := chaosDB(t)
	db.cfg.QueryTimeout = time.Microsecond
	plan, err := db.Optimize(db.Scan("big").OrderBy("v"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = runChaosQuery(db, plan, 64, 0)
	if err == nil {
		t.Fatal("query outran a 1µs timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout surfaced as %v, want context.DeadlineExceeded", err)
	}
	checkServingRestored(t, db, "after timeout")
	db.cfg.QueryTimeout = 0
	if _, _, err := runChaosQuery(db, plan, 64, 0); err != nil {
		t.Fatalf("re-run without the timeout failed: %v", err)
	}
}

// TestWithDeadlineInPast rejects the query before it takes any resource.
func TestWithDeadlineInPast(t *testing.T) {
	db := chaosDB(t)
	plan, err := db.Optimize(db.Scan("big").OrderBy("v"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(context.Background(), plan, WithDeadline(time.Now().Add(-time.Second)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("past deadline surfaced as %v, want context.DeadlineExceeded", err)
	}
	checkServingRestored(t, db, "after past deadline")
}

// TestDeadlineWhileQueuedAtGate covers a query whose whole life is spent
// queued: with one execution slot held by a live cursor, a second query's
// deadline must fire inside the admission wait and give nothing back dirty.
func TestDeadlineWhileQueuedAtGate(t *testing.T) {
	db := Open(Config{SortMemoryBlocks: 8, MaxConcurrentQueries: 1})
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{int64(i / 100), int64(i * 7 % 997)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	holder, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Next() {
		t.Fatalf("holder produced no rows: %v", holder.Err())
	}
	_, err = db.Query(context.Background(), plan, WithDeadline(time.Now().Add(20*time.Millisecond)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query's deadline surfaced as %v, want context.DeadlineExceeded", err)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	checkServingRestored(t, db, "after gate-queued deadline")
	if _, _, err := runChaosQuery(db, plan, 64, 0); err != nil {
		t.Fatalf("query after the holder closed failed: %v", err)
	}
}

// TestDeadlineWhileBlockedInGovernor covers the other blocking point: the
// pool is fully granted to a live cursor and the minimum grant equals the
// pool, so a second query can only wait — its deadline must reach it there.
func TestDeadlineWhileBlockedInGovernor(t *testing.T) {
	db := Open(Config{
		SortMemoryBlocks:       8,
		GlobalSortMemoryBlocks: 8,
		MinSortGrantBlocks:     8,
	})
	rows := make([][]any, 2000)
	for i := range rows {
		rows[i] = []any{int64(i / 500), int64(i * 7 % 9973), int64(i)}
	}
	if err := db.CreateTable("big", []Column{
		{Name: "g", Type: Int64},
		{Name: "v", Type: Int64},
		{Name: "pad", Type: Int64},
	}, ClusterOn("g"), rows); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Optimize(db.Scan("big").OrderBy("g", "v"))
	if err != nil {
		t.Fatal(err)
	}
	holder, err := db.Query(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !holder.Next() {
		t.Fatalf("holder produced no rows: %v", holder.Err())
	}
	if holder.Stats().GrantedBlocks == 0 {
		t.Fatal("holder took no grant; the test cannot block the pool")
	}
	_, err = db.Query(context.Background(), plan, WithDeadline(time.Now().Add(20*time.Millisecond)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("grant-blocked query's deadline surfaced as %v, want context.DeadlineExceeded", err)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	checkServingRestored(t, db, "after governor-blocked deadline")
	if _, _, err := runChaosQuery(db, plan, 64, 0); err != nil {
		t.Fatalf("query after the holder closed failed: %v", err)
	}
}
