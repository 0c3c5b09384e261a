// Package pyro is a cost-based query optimizer and execution engine built
// around order optimization: it reproduces the techniques of
// "Reducing Order Enforcement Cost in Complex Query Plans" (Guravannavar,
// Sudarshan, Diwan, Sobhan Babu) — partial-sort enforcers, favorable-order
// driven interesting-order selection, and 2-approximate refinement of join
// sort orders.
//
// A Database bundles a simulated block device, a catalog and default
// resources. Tables are bulk-loaded, optionally clustered and indexed with
// covering secondary indices; queries are assembled with the Query builder,
// optimized under a selectable heuristic (PYRO, PYRO-O⁻, PYRO-P, PYRO-O,
// PYRO-E) and executed on the Volcano-style iterator engine:
//
//	db := pyro.Open(pyro.Config{})
//	db.CreateTable("t", []pyro.Column{{Name: "a", Type: pyro.Int64}, ...},
//	    pyro.ClusterOn("a"), rows)
//	q := db.Scan("t").Filter(pyro.Gt(pyro.Col("a"), pyro.Int(10))).
//	    OrderBy("a", "b")
//	plan, _ := db.Optimize(q)
//	cur, _ := db.Query(ctx, plan)
//	defer cur.Close()
//	for cur.Next() {
//	    var a, b int64
//	    cur.Scan(&a, &b)
//	}
//
// Query streams: under a pipelined partial-sort plan the first rows arrive
// before most of the input has been read, closing the cursor early
// abandons the unread remainder, and the context cancels execution even
// inside a long sort. Execute remains as a materialising convenience.
package pyro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/cost"
	"pyro/internal/govern"
	"pyro/internal/logical"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// Type enumerates column types of the public API.
type Type uint8

// Column types.
const (
	Int64 Type = iota
	Float64
	String
	Bool
)

func (t Type) kind() types.Kind {
	switch t {
	case Int64:
		return types.KindInt
	case Float64:
		return types.KindFloat
	case String:
		return types.KindString
	case Bool:
		return types.KindBool
	}
	return types.KindNull
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
	// Width is the average width in bytes used for cost estimation
	// (0 picks a default per type).
	Width int
}

// Config sizes a Database.
type Config struct {
	// PageSize is the simulated disk block size (default 4096, matching
	// the paper's setup).
	PageSize int
	// SortMemoryBlocks is M, the sort memory budget in blocks (default
	// 10000 blocks = 40 MB at the default page size, as in the paper).
	SortMemoryBlocks int
	// SortParallelism bounds how many partial-sort segments an MRS
	// enforcer sorts concurrently (0 = GOMAXPROCS, 1 = serial).
	SortParallelism int
	// SortSpillParallelism bounds how many spill jobs — run-forming sorts
	// of an oversized sort's memory batches and run-reduction merges — run
	// concurrently per enforcer (0 = inherit SortParallelism, 1 = the
	// paper's serial spill algorithm). Spill files live in per-sort
	// storage arenas with lock-free I/O accounting, so I/O totals are
	// identical at every parallelism level.
	//
	// The optimizer's cost model also reads this knob: an explicitly
	// configured spill parallelism above 1 — this field, or an explicit
	// SortParallelism it would inherit at execution time — prices
	// external-sort merge passes as overlapped
	// (cost.Model.SpillParallelism), which can legitimately flip plan
	// choice toward sort-based operators on multi-core targets. With both
	// fields 0 the executor inherits GOMAXPROCS but pricing stays serial,
	// deliberately: plan choice must never depend on the machine the
	// optimizer happens to run on.
	SortSpillParallelism int

	// GlobalSortMemoryBlocks is the database-wide sort-memory pool, in
	// blocks, shared by all concurrently executing queries through the
	// sort-memory governor. Each query asks for SortMemoryBlocks; a lone
	// query is granted its full ask (making single-cursor execution
	// identical to the ungoverned engine), concurrent queries share the
	// pool by fair shares, and a query already spilling (observed through
	// its per-query I/O tap) is shrunk toward its fair share while others
	// wait. 0 defaults to SortMemoryBlocks — the pool admits one
	// full-budget sort's worth of memory in total. Negative disables the
	// governor: every query gets the static per-sort budget, as before.
	// Queries that override their budget with WithSortMemoryBlocks bypass
	// the governor entirely (the explicit value is taken literally, as
	// documented there).
	GlobalSortMemoryBlocks int
	// MinSortGrantBlocks is the smallest sort-memory grant the governor
	// will issue or shrink to (0 defaults to GlobalSortMemoryBlocks/256,
	// at least 1). Raising it bounds how far contention can squeeze a
	// query's sorts.
	MinSortGrantBlocks int
	// MaxConcurrentQueries bounds how many queries execute at once; excess
	// Query calls queue (cancellably) and report their wait in
	// ExecStats.QueuedTime. 0 means unlimited (no admission gate).
	MaxConcurrentQueries int
	// ExecBatchSize is the vectorized executor's chunk capacity: operators
	// that support the chunked protocol (scans, filters, projections,
	// unions, dedup, limit — and the inputs of sorts, aggregates and hash
	// joins) move batches of up to this many rows per call instead of one
	// tuple per call. Results, sort statistics and per-query I/O are
	// byte-identical at every setting; batching only removes per-row
	// interface-call and allocation overhead. 0 picks the default (1024);
	// 1 disables batching entirely and runs the exact legacy
	// row-at-a-time path. Per-query override: WithExecBatchSize.
	ExecBatchSize int
	// QueryTimeout bounds every query's wall-clock lifetime, measured from
	// the Query call (0 = unlimited). It rides the same abort path as
	// context cancellation — polled inside sort and spill loops, while
	// queued at the admission gate, and while blocked on a sort-memory
	// grant — and surfaces as context.DeadlineExceeded from Cursor.Err.
	// WithDeadline tightens it per query.
	QueryTimeout time.Duration
	// PlanCacheSize bounds the database's plan cache, which lets repeated
	// Optimize calls and WithRowTarget re-optimizations of the same query
	// shape skip the optimizer: entries are keyed by (logical query
	// signature, optimizer options, row-target band), so any option that
	// could change plan choice misses. 0 defaults to 256 entries; negative
	// disables caching.
	PlanCacheSize int
}

// Database is a self-contained engine instance.
type Database struct {
	disk *storage.Disk
	cat  *catalog.Catalog
	cfg  Config

	// Serving layer: shared across every concurrent query of this
	// database. gov arbitrates the global sort-memory pool (nil when
	// disabled), gate bounds concurrent queries (nil = unlimited), plans
	// caches optimization results (nil when disabled).
	gov   *govern.Governor
	gate  *govern.Gate
	plans *planCache
}

// Open creates an empty database.
func Open(cfg Config) *Database {
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.SortMemoryBlocks <= 0 {
		cfg.SortMemoryBlocks = 10000
	}
	disk := storage.NewDisk(cfg.PageSize)
	db := &Database{disk: disk, cat: catalog.New(disk), cfg: cfg}
	if cfg.GlobalSortMemoryBlocks >= 0 {
		total := cfg.GlobalSortMemoryBlocks
		if total == 0 {
			total = cfg.SortMemoryBlocks
		}
		// Config errors are impossible here: total is positive and the min
		// grant non-negative by the clamps above.
		db.gov, _ = govern.New(govern.Config{
			TotalBlocks:    total,
			MinGrantBlocks: cfg.MinSortGrantBlocks,
		})
	}
	if cfg.MaxConcurrentQueries > 0 {
		db.gate, _ = govern.NewGate(cfg.MaxConcurrentQueries, 0)
	}
	cacheSize := cfg.PlanCacheSize
	if cacheSize == 0 {
		cacheSize = 256
	}
	db.plans = newPlanCache(cacheSize)
	return db
}

// ServingStats aggregates the database's serving-layer counters: the
// sort-memory governor, the admission gate and the plan cache.
type ServingStats struct {
	// Governor reports sort-memory grant activity. Zero when the governor
	// is disabled (GlobalSortMemoryBlocks < 0).
	Governor govern.Stats
	// Admission reports the concurrent-query gate. Zero when unlimited
	// (MaxConcurrentQueries == 0).
	Admission govern.GateStats
	// PlanCache reports optimizer-result reuse. Zero when disabled
	// (PlanCacheSize < 0).
	PlanCache PlanCacheStats
}

// ServingStats returns a snapshot of the serving layer's counters.
func (db *Database) ServingStats() ServingStats {
	var s ServingStats
	if db.gov != nil {
		s.Governor = db.gov.Stats()
	}
	if db.gate != nil {
		s.Admission = db.gate.Stats()
	}
	if db.plans != nil {
		s.PlanCache = db.plans.snapshot()
	}
	return s
}

// ClusterOn names the clustering order for CreateTable.
func ClusterOn(cols ...string) []string { return cols }

// Value converts a Go value to an engine datum. Supported: nil, int,
// int64, float64, string, bool.
func Value(v any) (types.Datum, error) {
	switch x := v.(type) {
	case nil:
		return types.Null, nil
	case int:
		return types.NewInt(int64(x)), nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case string:
		return types.NewString(x), nil
	case bool:
		return types.NewBool(x), nil
	default:
		return types.Datum{}, fmt.Errorf("pyro: unsupported value type %T", v)
	}
}

// CreateTable bulk-loads a table. clusterOn may be nil (heap order). Rows
// are Go values converted via Value.
func (db *Database) CreateTable(name string, cols []Column, clusterOn []string, rows [][]any) error {
	tcols := make([]types.Column, len(cols))
	for i, c := range cols {
		// An unknown Type would type the column NULL, which sort keys
		// encode on the promise that it holds nothing but NULLs.
		if c.Type.kind() == types.KindNull {
			return fmt.Errorf("pyro: column %q of table %q has unknown type %d", c.Name, name, c.Type)
		}
		tcols[i] = types.Column{Name: c.Name, Kind: c.Type.kind(), Width: c.Width}
	}
	schema := types.NewSchema(tcols...)
	data := make([]types.Tuple, len(rows))
	for i, r := range rows {
		if len(r) != len(cols) {
			return fmt.Errorf("pyro: row %d has %d values, table %q has %d columns", i, len(r), name, len(cols))
		}
		tup := make(types.Tuple, len(r))
		for j, v := range r {
			d, err := Value(v)
			if err != nil {
				return fmt.Errorf("pyro: row %d column %q: %w", i, cols[j].Name, err)
			}
			tup[j] = d
		}
		data[i] = tup
	}
	_, err := db.cat.CreateTable(name, schema, sortord.New(clusterOn...), data)
	return err
}

// CreateIndex materialises a covering secondary index: key columns in
// order, plus included non-key columns stored in the leaves.
func (db *Database) CreateIndex(indexName, tableName string, keyCols []string, include []string) error {
	tb, err := db.cat.Table(tableName)
	if err != nil {
		return err
	}
	_, err = db.cat.CreateIndex(indexName, tb, sortord.New(keyCols...), include)
	return err
}

// Heuristic re-exports the optimizer variants.
type Heuristic = core.Heuristic

// Heuristic variants (the paper's §6 names).
const (
	PYRO       = core.HeuristicArbitrary
	PYROOMinus = core.HeuristicFavorableExact
	PYROP      = core.HeuristicPostgres
	PYROO      = core.HeuristicFavorable
	PYROE      = core.HeuristicExhaustive
)

// OptimizeOption customises an Optimize call.
type OptimizeOption func(*core.Options)

// WithHeuristic selects the interesting-order heuristic (default PYRO-O).
// It sets only the heuristic; Optimize applies the heuristic's canonical
// defaults (PYRO and PYRO-O⁻ imply no partial-sort enforcers, only PYRO-O
// runs phase-2 refinement) once all options have run. The options of one
// Optimize call therefore compose order-independently, ablation flags set
// by other options survive on either side of WithHeuristic, and when
// WithHeuristic appears more than once the last heuristic wins outright.
func WithHeuristic(h Heuristic) OptimizeOption {
	return func(o *core.Options) { o.Heuristic = h }
}

// WithoutPartialSort disables partial-sort enforcers (ablation).
func WithoutPartialSort() OptimizeOption {
	return func(o *core.Options) { o.DisablePartialSort = true }
}

// WithoutPhase2 disables the §5.2.2 plan refinement (ablation).
func WithoutPhase2() OptimizeOption {
	return func(o *core.Options) { o.DisablePhase2 = true }
}

// WithoutHashJoin restricts plans to sort-based joins.
func WithoutHashJoin() OptimizeOption {
	return func(o *core.Options) { o.DisableHashJoin = true }
}

// WithoutHashAgg restricts plans to sort-based aggregation.
func WithoutHashAgg() OptimizeOption {
	return func(o *core.Options) { o.DisableHashAgg = true }
}

// Plan is an optimized physical plan bound to its database. It remembers
// the logical query and the options it was optimized under, so execution
// can re-plan it for a different consumption profile (WithRowTarget).
type Plan struct {
	db    *Database
	inner *core.Plan
	stats core.Stats
	node  logical.Node
	opts  core.Options
}

// Explain renders the plan tree with costs, cardinalities and sort orders.
// Every node shows both cost phases: cost= is the full-drain total, and
// startup= the blocking work before the node's first output row — under a
// pipelined partial-sort plan the root's startup sits far below its cost,
// while a blocking full-sort or hash plan shows the two nearly equal.
func (p *Plan) Explain() string { return p.inner.Format() }

// EstimatedCost returns the cost model's full-drain estimate in I/O units.
func (p *Plan) EstimatedCost() float64 { return p.inner.Cost.Total }

// EstimatedStartupCost returns the modeled blocking work before the plan's
// first row — the time-to-first-row side of the two-phase cost model.
func (p *Plan) EstimatedStartupCost() float64 { return p.inner.Cost.Startup }

// EstimatedPrefixCost returns the modeled cost of producing only the first
// k rows (EstimatedPrefixCost(N) equals EstimatedCost; a partial-sort plan
// is charged ⌈k·D/N⌉ segment sorts).
func (p *Plan) EstimatedPrefixCost(k int64) float64 { return p.inner.PrefixCost(k) }

// OptimizerStats returns counters from the optimization run.
func (p *Plan) OptimizerStats() core.Stats { return p.stats }

// Optimize plans a query. The default configuration is the paper's PYRO-O:
// favorable orders, partial sorts and phase-2 refinement enabled.
func (db *Database) Optimize(q *Query, opts ...OptimizeOption) (*Plan, error) {
	if q.err != nil {
		return nil, q.err
	}
	options := core.DefaultOptions(core.HeuristicFavorable)
	for _, o := range opts {
		o(&options)
	}
	// Fold in the final heuristic's implied defaults after every option has
	// run: explicit ablations OR onto them, so composition is
	// order-independent and only the last WithHeuristic matters.
	implied := core.DefaultOptions(options.Heuristic)
	options.DisablePartialSort = options.DisablePartialSort || implied.DisablePartialSort
	options.DisablePhase2 = options.DisablePhase2 || implied.DisablePhase2
	options.Model = cost.DefaultModel()
	options.Model.PageSize = db.cfg.PageSize
	options.Model.MemoryBlocks = int64(db.cfg.SortMemoryBlocks)
	// Governor-aware pricing: under contention the executor will not be
	// granted the full static budget, so price sorts at the grant the pool
	// would issue right now — fair share among live claimants. The model is
	// part of the plan-cache key, so plans optimized under different
	// contention levels cache separately and an uncontended replan is never
	// served a contention-shaped plan (or vice versa).
	if db.gov != nil {
		if expect := db.gov.ExpectedGrant(db.cfg.SortMemoryBlocks); expect > 0 {
			options.Model.MemoryBlocks = int64(expect)
		}
	}
	// Price the spill parallelism execution will actually use, but only
	// when it is explicitly configured: SortSpillParallelism, or the
	// SortParallelism it inherits from when unset. 0 means GOMAXPROCS at
	// execution time and stays serially priced (see Config).
	spillPar := db.cfg.SortSpillParallelism
	if spillPar == 0 {
		spillPar = db.cfg.SortParallelism
	}
	if spillPar > 1 {
		options.Model.SpillParallelism = spillPar
	}
	inner, stats, err := db.optimize(q.node, options)
	if err != nil {
		return nil, err
	}
	return &Plan{db: db, inner: inner, stats: stats, node: q.node, opts: options}, nil
}

// optimize runs the optimizer through the plan cache. The cache key is the
// query's full logical signature plus the complete (comparable) option set
// with the row target banded into power-of-two buckets; the optimizer is a
// pure function of exactly those inputs, so a hit returns the identical
// plan and optimizer stats the miss path would have computed (the one
// exception being row targets within one band, which deliberately share a
// plan). On a miss the optimizer runs at the actual requested row target —
// the first call per band behaves exactly like the uncached engine — and
// the result is stored under the band key. Cached plan trees are immutable
// and shared by reference.
func (db *Database) optimize(node logical.Node, options core.Options) (*core.Plan, core.Stats, error) {
	if db.plans == nil {
		res, err := core.Optimize(node, options)
		if err != nil {
			return nil, core.Stats{}, err
		}
		return res.Plan, res.Stats, nil
	}
	key := planKey{shape: logical.Signature(node), opts: options, band: rowTargetBand(options.RowTarget)}
	key.opts.RowTarget = 0 // the band carries it
	if plan, stats, ok := db.plans.get(key); ok {
		return plan, stats, nil
	}
	res, err := core.Optimize(node, options)
	if err != nil {
		return nil, core.Stats{}, err
	}
	db.plans.put(key, res.Plan, res.Stats)
	return res.Plan, res.Stats, nil
}

// Rows is a fully materialised query result.
type Rows struct {
	Columns []string
	Data    [][]any
}

// Execute compiles and runs a plan, materialising every result row. It is
// a thin wrapper over Query that drains the cursor, so it pays
// full-result materialisation and cannot stop the engine early or be
// cancelled — everything the streaming cursor exists to avoid.
//
// Deprecated: Use Query, which streams rows on demand, honors context
// cancellation, supports per-query execution options and reports per-query
// ExecStats. Execute is kept as a convenience for small results and for
// existing callers.
func (db *Database) Execute(p *Plan) (*Rows, error) {
	cur, err := db.Query(context.Background(), p)
	if err != nil {
		return nil, err
	}
	out := &Rows{Columns: cur.Columns(), Data: make([][]any, 0)}
	for cur.Next() {
		out.Data = append(out.Data, cur.Row())
	}
	if err := cur.Err(); err != nil {
		return nil, errors.Join(err, cur.Close())
	}
	return out, cur.Close()
}

func datumValue(d types.Datum) any {
	switch d.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return d.Int()
	case types.KindFloat:
		return d.Float()
	case types.KindString:
		return d.Str()
	case types.KindBool:
		return d.Bool()
	}
	return nil
}

// IOStats is a snapshot of simulated disk activity.
type IOStats = storage.IOStats

// IOStats returns the disk's cumulative I/O counters.
func (db *Database) IOStats() IOStats { return db.disk.Stats() }

// Disk exposes the database's simulated block device. Chaos tooling uses
// the handle to install fault plans and temp-space quotas
// (storage.Disk.SetFaultPlan, SetTempQuotaPages) and to audit for leaked
// temp files and spill arenas; production paths never need it.
func (db *Database) Disk() *storage.Disk { return db.disk }

// ResetIOStats zeroes the disk's I/O counters (call before a measured run).
func (db *Database) ResetIOStats() { db.disk.ResetStats() }
