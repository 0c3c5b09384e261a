package pyro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/govern"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// SortStats re-exports the sort engine's per-enforcer work counters
// (comparisons, runs, merge passes, segments, radix passes, spill regime).
type SortStats = xsort.SortStats

// execConfig is the per-query execution state ExecOptions mutate: the
// Database Config knobs plus execution-only settings that are not part of
// the database configuration.
type execConfig struct {
	Config
	rowTarget int64
	deadline  time.Time
	// memoryOverride records that WithSortMemoryBlocks pinned the budget
	// explicitly, which bypasses the sort-memory governor.
	memoryOverride bool
}

// ExecOption overrides one execution knob for a single Query call, leaving
// the Database's Config untouched. Options apply to every operator the
// query builds; except for WithRowTarget — which re-optimizes the plan for
// first-k consumption — the optimizer's plan choice is not revisited
// (re-plan with Optimize if a different knob should also change the plan).
type ExecOption func(*execConfig)

// WithSortParallelism bounds concurrent MRS segment sorts per enforcer for
// this query (0 = GOMAXPROCS, 1 = the paper's serial algorithm).
func WithSortParallelism(n int) ExecOption {
	return func(c *execConfig) { c.SortParallelism = n }
}

// WithSortSpillParallelism bounds concurrent spill jobs per enforcer for
// this query (0 = inherit the sort parallelism, 1 = serial spilling).
func WithSortSpillParallelism(n int) ExecOption {
	return func(c *execConfig) { c.SortSpillParallelism = n }
}

// WithSortMemoryBlocks overrides the per-sort memory budget M (in disk
// blocks) for this query. The explicit value is taken literally: the query
// bypasses the database's sort-memory governor entirely — it takes no
// grant from the global pool and its budget is never shrunk under
// contention. Use it for experiments that need an exact, reproducible M
// per query; leave it unset to share the pool.
func WithSortMemoryBlocks(n int) ExecOption {
	return func(c *execConfig) {
		c.SortMemoryBlocks = n
		c.memoryOverride = true
	}
}

// WithExecBatchSize overrides the vectorized executor's chunk capacity for
// this query (see Config.ExecBatchSize): 0 picks the default
// (types.DefaultChunkCapacity), 1 runs the exact legacy row-at-a-time
// path, and n > 1 moves up to n rows per chunk through chunk-capable
// operator subtrees. Results, sort counters and per-query I/O are
// identical at every setting; only the per-row constant factor changes.
func WithExecBatchSize(n int) ExecOption {
	return func(c *execConfig) { c.ExecBatchSize = n }
}

// WithDeadline imposes an absolute deadline on this query. Reaching it
// aborts the query wherever it is — queued at the admission gate, blocked
// on a sort-memory grant, or deep in a sort or spill loop — and surfaces as
// context.DeadlineExceeded from Cursor.Err. The effective deadline is the
// earlier of this and Config.QueryTimeout; a zero time means none. Unlike
// context.WithDeadline this needs no goroutine or timer, and it keeps
// working for callers who pass context.Background().
func WithDeadline(t time.Time) ExecOption {
	return func(c *execConfig) { c.deadline = t }
}

// WithRowTarget declares that this consumer wants the first k rows fast —
// the streaming analogue of a LIMIT the query doesn't have. Query
// re-optimizes the plan with the optimizer's row budget set to k, so plan
// comparison happens by the cost of the first k rows (favoring pipelined
// partial-sort plans over blocking full sorts and hash operators, §7
// Top-K) instead of full drain. Unlike Query.Limit the result is NOT
// truncated: all rows stream if the cursor is drained — only the plan
// choice changes. Negative k is rejected by Query; 0 means "no target"
// (the option is a no-op, like omitting it).
func WithRowTarget(k int64) ExecOption {
	return func(c *execConfig) { c.rowTarget = k }
}

// ExecStats is one query's execution report, available from Cursor.Stats
// at any point in the cursor's life (live while streaming, frozen once the
// cursor finishes).
type ExecStats struct {
	// Rows is how many rows the cursor has returned.
	Rows int64
	// TimeToFirstRow is the latency from the Query call to the first Next
	// returning a row (zero until then). Under a pipelined partial-sort
	// plan this stays near zero however large the input; a full sort must
	// consume everything first — the paper's §3.1 pipelining benefit, made
	// visible at the public API.
	TimeToFirstRow time.Duration
	// Elapsed is the time from the Query call until the cursor finished,
	// or until now while it is still open.
	Elapsed time.Duration
	// Sorts snapshots every sort enforcer's counters in plan (pre-order)
	// position, matching Plan.Explain's operator order. An early Close
	// freezes them mid-flight: segments never sorted and spill runs never
	// read simply don't appear in the totals.
	Sorts []SortStats
	// IO is the disk activity this query itself caused, measured by a
	// per-query storage tap that every operator of the plan charges
	// alongside the device ledger. Attribution is exact and disjoint even
	// with other cursors running concurrently on the same Database: another
	// query's scans and spills never appear here, and the sum of all
	// cursors' IO equals the device's delta.
	IO IOStats
	// QueuedTime is how long the query waited in the admission gate before
	// executing (zero when admitted immediately or when
	// Config.MaxConcurrentQueries is unlimited).
	QueuedTime time.Duration
	// GrantedBlocks is the sort-memory grant this query received from the
	// global governor, in blocks, as initially issued (spill-pressure
	// reclaim may have shrunk it since). Zero when the query took no grant:
	// the governor is disabled, the budget was pinned with
	// WithSortMemoryBlocks, or the plan has no memory-consuming operator.
	GrantedBlocks int
	// GrantWait is how long the query blocked waiting for sort memory;
	// GrantWaits is 1 when it blocked at all (per-query grants block at
	// most once, at acquisition).
	GrantWait  time.Duration
	GrantWaits int64
}

// Cursor streams one query's results row by row, in the database/sql
// style:
//
//	cur, err := db.Query(ctx, plan)
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//	    var g, v int64
//	    if err := cur.Scan(&g, &v); err != nil { ... }
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Rows are produced on demand: under a pipelined plan (a partial-sort
// enforcer over a clustered or indexed prefix) the engine reads only as
// much input as the rows consumed require, and Close mid-stream abandons
// the rest — unsorted MRS segments are never sorted, unread spill runs are
// dropped with their arenas. Context cancellation is honored between Next
// calls and polled inside long-running sort and spill loops.
//
// A Cursor is not safe for concurrent use; separate cursors on one
// Database are (they share only the concurrency-safe storage layer).
type Cursor struct {
	db    *Database
	ctx   context.Context
	abort func() error // ctx.Err, extended with the query deadline
	op    exec.Operator
	cols  []string
	sorts []*exec.Sort
	tap   *storage.Tap

	// Serving-layer state: the admission slot and sort-memory grant this
	// query holds, both released exactly once when the cursor finishes.
	admitted bool
	queued   time.Duration
	grant    *govern.Grant

	start    time.Time
	firstRow time.Duration
	rows     int64

	// Batch-path state: when the plan's top subtree is chunk-capable and
	// batching is on, Next drains pooled chunks internally and serves rows
	// out of them — the public row semantics (TTFR at the first row, early
	// Close shedding, ctx polling per Next) are unchanged.
	chunkOp    exec.ChunkOperator
	chunkBatch int
	chunk      *types.Chunk
	chunkPos   int
	rowBuf     types.Tuple

	cur      types.Tuple
	err      error
	closeErr error
	finished bool
	final    ExecStats
}

// Query compiles a plan and returns a streaming cursor over its results.
// Execution resources come from the Database's Config, overridden per
// query by any ExecOptions. The context is checked before each Next and
// polled inside the sort enforcers' long loops; once it is done the cursor
// fails with its error. Note that a blocking full-sort plan does its
// sorting inside Query — a pipelined partial-sort plan is what makes the
// first row arrive early.
func (db *Database) Query(ctx context.Context, p *Plan, opts ...ExecOption) (*Cursor, error) {
	if p == nil {
		return nil, fmt.Errorf("pyro: nil plan")
	}
	if p.db != db {
		return nil, fmt.Errorf("pyro: plan belongs to a different database")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := execConfig{Config: db.cfg}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.rowTarget < 0 {
		return nil, fmt.Errorf("pyro: negative row target %d", cfg.rowTarget)
	}
	if cfg.ExecBatchSize < 0 {
		return nil, fmt.Errorf("pyro: negative exec batch size %d", cfg.ExecBatchSize)
	}
	if cfg.rowTarget != 0 && p.node == nil {
		return nil, fmt.Errorf("pyro: plan carries no query to re-optimize for a row target")
	}

	// The abort check every blocking point of this query polls: context
	// cancellation, extended with the effective deadline when one is set.
	abort := ctx.Err
	if dl, has := queryDeadline(cfg, time.Now()); has {
		abort = deadlineAbort(ctx, dl)
		if err := abort(); err != nil {
			return nil, err
		}
	}

	// Admission: with a bounded gate the query queues (cancellably) for an
	// execution slot before any optimizer or build work happens.
	var queued time.Duration
	admitted := false
	if db.gate != nil {
		var err error
		queued, err = db.gate.Enter(abort)
		if err != nil {
			return nil, err
		}
		admitted = true
	}
	// Until the cursor exists and owns them, every error return must give
	// back the admission slot and the memory grant.
	var grant *govern.Grant
	ok := false
	defer func() {
		if ok {
			return
		}
		if grant != nil {
			grant.Release()
		}
		if admitted {
			db.gate.Leave()
		}
	}()

	inner := p.inner
	if cfg.rowTarget != 0 {
		ropts := p.opts
		ropts.RowTarget = cfg.rowTarget
		rplan, _, err := db.optimize(p.node, ropts)
		if err != nil {
			return nil, err
		}
		inner = rplan
	}
	tap := storage.NewTap()

	// Sort-memory grant: governed queries whose plan buffers sort memory
	// ask the global pool for their configured budget. A lone query gets
	// its full ask (single-cursor execution is identical to the ungoverned
	// engine); under contention the grant is a fair share and may be shrunk
	// further while the query spills. The grant doubles as the live
	// xsort.Budget every sort enforcer re-reads, and the tap lets the
	// governor see this query's spill writes. Explicit WithSortMemoryBlocks
	// bypasses all of this, as does a plan with no sort or spool operator.
	buildBlocks := cfg.SortMemoryBlocks
	var budget xsort.Budget
	if db.gov != nil && !cfg.memoryOverride && planUsesSortMemory(inner) {
		g, err := db.gov.Acquire(cfg.SortMemoryBlocks, tap, abort)
		if err != nil {
			return nil, err
		}
		grant = g
		buildBlocks = g.Initial()
		budget = g
	}

	batch := cfg.ExecBatchSize
	if batch <= 0 {
		batch = types.DefaultChunkCapacity
	}
	op, err := core.Build(inner, core.BuildConfig{
		Disk:                 db.disk,
		SortMemoryBlocks:     buildBlocks,
		SortBudget:           budget,
		SortParallelism:      cfg.SortParallelism,
		SortSpillParallelism: cfg.SortSpillParallelism,
		SortAbort:            abort,
		IOTap:                tap,
		ExecBatchSize:        batch,
	})
	if err != nil {
		return nil, err
	}
	c := &Cursor{
		db:       db,
		ctx:      ctx,
		abort:    abort,
		op:       op,
		cols:     inner.Schema.Names(),
		sorts:    exec.CollectSorts(op),
		tap:      tap,
		admitted: admitted,
		queued:   queued,
		grant:    grant,
		start:    time.Now(),
	}
	if batch > 1 && exec.ChunkCapable(op) {
		c.chunkOp = op.(exec.ChunkOperator)
		c.chunkBatch = batch
	}
	ok = true // c.finish releases the slot and grant from here on
	if err := openOp(op); err != nil {
		if cerr := c.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return c, nil
}

// queryDeadline resolves the query's effective absolute deadline: the
// earlier of WithDeadline and now + Config.QueryTimeout.
func queryDeadline(cfg execConfig, now time.Time) (time.Time, bool) {
	dl := cfg.deadline
	if cfg.QueryTimeout > 0 {
		if t := now.Add(cfg.QueryTimeout); dl.IsZero() || t.Before(dl) {
			dl = t
		}
	}
	return dl, !dl.IsZero()
}

// deadlineAbort builds a query abort check that reports context
// cancellation first and then the absolute deadline. The one function feeds
// every blocking point — admission, the memory governor, sort and spill
// loops, Next — so a query blocked anywhere observes its deadline exactly
// the way a cancelled one observes cancellation.
func deadlineAbort(ctx context.Context, dl time.Time) func() error {
	return func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(dl) {
			return fmt.Errorf("pyro: query deadline %s exceeded: %w", dl.Format(time.RFC3339Nano), context.DeadlineExceeded)
		}
		return nil
	}
}

// recoverQuery converts a panic escaping the operator tree into an error at
// *dst. Without it a panicking operator would unwind through Query or Next
// past the cursor's accounting, wedging the admission slot and sort-memory
// grant the query holds; with it the panic becomes a Cursor.Err and finish
// releases everything as on any other failure.
func recoverQuery(dst *error) {
	if r := recover(); r != nil {
		// A panic value that is itself an error keeps its chain, so callers
		// can still errors.Is against sentinels (e.g. an injected storage
		// fault in panic mode) on the contained path.
		var err error
		if perr, ok := r.(error); ok {
			err = fmt.Errorf("pyro: panic during query execution: %w", perr)
		} else {
			err = fmt.Errorf("pyro: panic during query execution: %v", r)
		}
		if *dst == nil {
			*dst = err
		} else {
			*dst = errors.Join(*dst, err)
		}
	}
}

// openOp opens the operator tree with panic containment.
func openOp(op exec.Operator) (err error) {
	defer recoverQuery(&err)
	return op.Open()
}

// planUsesSortMemory reports whether the plan contains an operator that
// buffers tuples against the sort-memory budget — a sort enforcer or a
// block-nested-loops join spool. Plans without one (pure scans, filters,
// hash operators) run grant-free: they take nothing from the global pool.
func planUsesSortMemory(p *core.Plan) bool {
	return p.CountKind(core.OpSort) > 0 || p.CountKind(core.OpNLJoin) > 0
}

// Next advances to the next row, reporting whether one is available. It
// returns false at the end of the result, on error, after Close, and once
// the query context is done; Err distinguishes the cases. Exhausting the
// result closes the cursor automatically (calling Close again is still
// fine).
func (c *Cursor) Next() bool {
	if c.finished {
		return false
	}
	if err := c.abort(); err != nil {
		c.fail(err)
		return false
	}
	if c.chunkOp != nil {
		return c.nextChunked()
	}
	t, ok, err := c.safeNext()
	if err != nil {
		c.fail(err)
		return false
	}
	if !ok {
		c.finish()
		return false
	}
	if c.rows == 0 {
		c.firstRow = time.Since(c.start)
	}
	c.rows++
	c.cur = t
	return true
}

// nextChunked serves the next row out of the cursor's chunk, refilling it
// from the operator tree at batch boundaries. The current row lives in a
// reused buffer (Row and Scan copy values out), so steady-state draining
// allocates nothing per row. TimeToFirstRow is stamped when the first row
// is surfaced to the caller — after the chunk refill, so batching cannot
// claim a first row it has not yet served.
func (c *Cursor) nextChunked() bool {
	for c.chunk == nil || c.chunkPos >= c.chunk.Rows() {
		if c.chunk == nil {
			c.chunk = types.GetChunk(len(c.cols), c.chunkBatch)
		}
		if err := c.safeNextChunk(); err != nil {
			c.fail(err)
			return false
		}
		c.chunkPos = 0
		if c.chunk.Rows() == 0 {
			c.finish()
			return false
		}
	}
	c.rowBuf = c.chunk.CopyRow(c.rowBuf, c.chunkPos)
	c.chunkPos++
	if c.rows == 0 {
		c.firstRow = time.Since(c.start)
	}
	c.rows++
	c.cur = c.rowBuf
	return true
}

// safeNext pulls one row with panic containment.
func (c *Cursor) safeNext() (t types.Tuple, ok bool, err error) {
	defer recoverQuery(&err)
	return c.op.Next()
}

// safeNextChunk refills the cursor's chunk with panic containment.
func (c *Cursor) safeNextChunk() (err error) {
	defer recoverQuery(&err)
	return c.chunkOp.NextChunk(c.chunk)
}

// Row returns the current row (the one the last successful Next moved to)
// as Go values, or nil when there is none. The slice is freshly allocated;
// the caller owns it.
func (c *Cursor) Row() []any {
	if c.cur == nil {
		return nil
	}
	row := make([]any, len(c.cur))
	for i, d := range c.cur {
		row[i] = datumValue(d)
	}
	return row
}

// Scan copies the current row into dest, one pointer per output column:
// *int64, *float64, *string, *bool for the matching column type (never
// NULL), or *any for any column (NULL scans as nil).
func (c *Cursor) Scan(dest ...any) error {
	if c.cur == nil {
		return fmt.Errorf("pyro: Scan called without a row (call Next first)")
	}
	if len(dest) != len(c.cur) {
		return fmt.Errorf("pyro: Scan got %d destinations for %d columns", len(dest), len(c.cur))
	}
	for i, d := range dest {
		if err := scanDatum(d, c.cur[i]); err != nil {
			return fmt.Errorf("pyro: Scan column %q: %w", c.cols[i], err)
		}
	}
	return nil
}

func scanDatum(dest any, d types.Datum) error {
	switch p := dest.(type) {
	case *any:
		*p = datumValue(d)
		return nil
	case *int64:
		if d.Kind() == types.KindInt {
			*p = d.Int()
			return nil
		}
	case *float64:
		switch d.Kind() {
		case types.KindFloat:
			*p = d.Float()
			return nil
		case types.KindInt:
			*p = float64(d.Int())
			return nil
		}
	case *string:
		if d.Kind() == types.KindString {
			*p = d.Str()
			return nil
		}
	case *bool:
		if d.Kind() == types.KindBool {
			*p = d.Bool()
			return nil
		}
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return fmt.Errorf("cannot scan %v into %T", datumValue(d), dest)
}

// Columns returns the result's column names.
func (c *Cursor) Columns() []string {
	return append([]string(nil), c.cols...)
}

// Err returns the first error the cursor hit — a failed Next, the query
// context's error, or a failed Close (joined onto an earlier error when
// both occurred, so neither is lost). It is nil after a clean exhaustion
// or a clean early Close.
func (c *Cursor) Err() error { return c.err }

// Close releases the query's resources and returns the release error, if
// any. Closing mid-stream propagates down the operator tree: sort
// enforcers abandon unsorted MRS segments, drop unread spill runs and
// release their arenas; the remaining input is never read. Close is
// idempotent, and Stats stays available afterwards.
func (c *Cursor) Close() error {
	c.finish()
	return c.closeErr
}

// fail records the cursor's first error and finishes it.
func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.finish()
}

// finish closes the operator tree exactly once, returns the query's
// serving resources (sort-memory grant, admission slot) and freezes the
// stats.
func (c *Cursor) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.cur = nil
	if c.chunk != nil {
		types.PutChunk(c.chunk)
		c.chunk = nil
	}
	if c.closeErr = closeOp(c.op); c.closeErr != nil {
		if c.err == nil {
			c.err = c.closeErr
		} else {
			c.err = errors.Join(c.err, c.closeErr)
		}
	}
	c.final = c.snapshot()
	if c.grant != nil {
		c.grant.Release()
	}
	if c.admitted {
		c.db.gate.Leave()
	}
}

// closeOp closes the operator tree with panic containment — a panicking
// Close must still hand finish control to release the grant and gate slot.
func closeOp(op exec.Operator) (err error) {
	defer recoverQuery(&err)
	return op.Close()
}

// Stats reports the query's execution counters: a live snapshot while the
// cursor is open, the final numbers once it has finished.
func (c *Cursor) Stats() ExecStats {
	if c.finished {
		return c.final
	}
	return c.snapshot()
}

func (c *Cursor) snapshot() ExecStats {
	s := ExecStats{
		Rows:           c.rows,
		TimeToFirstRow: c.firstRow,
		Elapsed:        time.Since(c.start),
		IO:             c.tap.Stats(),
		QueuedTime:     c.queued,
	}
	if c.grant != nil {
		s.GrantedBlocks = c.grant.Initial()
		s.GrantWait = c.grant.Waited()
		s.GrantWaits = c.grant.Waits()
	}
	if len(c.sorts) > 0 {
		s.Sorts = make([]SortStats, len(c.sorts))
		for i, sort := range c.sorts {
			s.Sorts[i] = *sort.SortStats()
		}
	}
	return s
}
