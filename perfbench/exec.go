package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pyro"
)

// compiled is one distinct query bound to a database, with its reference
// answer.
type compiled struct {
	name string // span name of the query
	q    *pyro.Query
	want expected
}

// queryRec is what one executed query leaves behind.
type queryRec struct {
	firstRow time.Duration // start of Optimize to the first row, or to the end of the rows when there are none
	err      error         // an error, or a result that does not match the reference
	stats    pyro.ExecStats
	estCost  float64
	// Optimizer work, set in traced runs on plan-cache misses only.
	miss                         bool
	goals, plansCosted, ordersTr int
}

// opRec is one op: the queries it ran in sequence. id indexes the
// client's ops.
type opRec struct {
	client, id int
	start, end time.Time
	queries    []queryRec
}

func (o *opRec) failed() bool {
	for _, q := range o.queries {
		if q.err != nil {
			return true
		}
	}
	return false
}

func (o *opRec) firstRow() time.Duration {
	var d time.Duration
	for _, q := range o.queries {
		d += q.firstRow
	}
	return d
}

// span is one traced interval. Spans of one op share (client, op); parent
// indexes the client's span list, -1 for the op's root span.
type span struct {
	Client int    `json:"client"`
	Op     int    `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps one client's spans in memory. A nil tracer records nothing.
type tracer struct {
	base   time.Time
	client int
	spans  []span
}

func (t *tracer) begin(op int, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Client: t.client, Op: op, ID: int32(len(t.spans)), Parent: parent, Name: name,
		Start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// Span names of the calls into pyro.
const (
	spanOp       = "op"
	spanOptimize = "pyro.Optimize"
	spanQuery    = "pyro.Query"
	spanDrain    = "pyro.Cursor.Next"
	spanClose    = "pyro.Cursor.Close"
)

// cell holds one scanned value; checker points Scan's destinations at
// cells so draining a cursor allocates nothing per row.
type cell struct {
	i int64
	s string
}

// checker verifies a result as it streams: fingerprint and sort order.
type checker struct {
	want       *expected
	vals, prev []cell
	dest       []any
	fp         fingerprint
	unsorted   bool
}

func (c *checker) reset(want *expected) {
	c.want = want
	n := len(want.kinds)
	if cap(c.vals) < n {
		c.vals = make([]cell, n)
		c.prev = make([]cell, n)
		c.dest = make([]any, n)
	}
	c.vals, c.prev, c.dest = c.vals[:n], c.prev[:n], c.dest[:n]
	for i, k := range want.kinds {
		if k == kindInt {
			c.dest[i] = &c.vals[i].i
		} else {
			c.dest[i] = &c.vals[i].s
		}
	}
	c.fp = fingerprint{}
	c.unsorted = false
}

// row folds the scanned row into the fingerprint and the order check.
func (c *checker) row() {
	h := hashSeed
	for i, k := range c.want.kinds {
		if k == kindInt {
			h = hashInt(h, c.vals[i].i)
		} else {
			h = hashString(h, c.vals[i].s)
		}
	}
	if c.fp.rows > 0 && !c.unsorted {
		for _, i := range c.want.order {
			d := cmp.Compare(c.vals[i].i, c.prev[i].i)
			if c.want.kinds[i] == kindString {
				d = cmp.Compare(c.vals[i].s, c.prev[i].s)
			}
			if d != 0 {
				c.unsorted = d < 0
				break
			}
		}
	}
	copy(c.prev, c.vals)
	c.fp.add(h)
}

func (c *checker) verdict() error {
	switch {
	case c.fp.rows != c.want.fp.rows:
		return fmt.Errorf("wrong result: %d rows, want %d", c.fp.rows, c.want.fp.rows)
	case c.fp.sum != c.want.fp.sum:
		return errors.New("wrong result: row multiset differs from the reference")
	case c.unsorted:
		return errors.New("wrong result: rows out of ORDER BY order")
	}
	return nil
}

// client is one closed-loop caller: its place in the schedule, its scratch
// checker and, in traced phases, its tracer.
type client struct {
	id     int
	passes int
	chk    checker
	tr     *tracer
	ops    []opRec
}

// runner executes a workload's ops against one database.
type runner struct {
	w       *workload
	db      *pyro.Database
	queries []compiled
}

func (r *runner) runOp(c *client, queries []int) {
	opID := len(c.ops)
	root := c.tr.begin(opID, -1, spanOp)
	op := opRec{client: c.id, id: opID, start: time.Now(), queries: make([]queryRec, 0, len(queries))}
	for _, qi := range queries {
		op.queries = append(op.queries, r.runQuery(c, &r.queries[qi], opID, root))
	}
	op.end = time.Now()
	c.tr.end(root)
	c.ops = append(c.ops, op)
}

func (r *runner) runQuery(c *client, q *compiled, opID int, parent int32) queryRec {
	var rec queryRec
	qs := c.tr.begin(opID, parent, q.name)
	defer c.tr.end(qs)
	traced := c.tr != nil
	var misses int64
	if traced {
		misses = r.db.ServingStats().PlanCache.Misses
	}
	start := time.Now()
	sp := c.tr.begin(opID, qs, spanOptimize)
	plan, err := r.db.Optimize(q.q)
	c.tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("optimize: %w", err)
		return rec
	}
	rec.estCost = plan.EstimatedCost()
	if traced && r.db.ServingStats().PlanCache.Misses > misses {
		st := plan.OptimizerStats()
		rec.miss, rec.goals, rec.plansCosted, rec.ordersTr = true, st.GoalsExplored, st.PlansCosted, st.OrdersTried
	}
	sp = c.tr.begin(opID, qs, spanQuery)
	cur, err := r.db.Query(context.Background(), plan)
	c.tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("query: %w", err)
		return rec
	}
	c.chk.reset(&q.want)
	sp = c.tr.begin(opID, qs, spanDrain)
	for cur.Next() {
		if c.chk.fp.rows == 0 {
			rec.firstRow = time.Since(start)
		}
		if err = cur.Scan(c.chk.dest...); err != nil {
			break
		}
		c.chk.row()
	}
	if c.chk.fp.rows == 0 {
		rec.firstRow = time.Since(start)
	}
	c.tr.end(sp)
	sp = c.tr.begin(opID, qs, spanClose)
	err = errors.Join(err, cur.Err(), cur.Close())
	c.tr.end(sp)
	rec.stats = cur.Stats()
	if err == nil {
		err = c.chk.verdict()
	}
	rec.err = err
	return rec
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	ops        []opRec // every client's ops
	passes     [][]opRec
	spans      []span
	wall       time.Duration
	io         pyro.IOStats // the device's I/O delta
	serving    [2]pyro.ServingStats
	allocBytes uint64
}

// runPhase runs the workload's clients closed-loop until d has elapsed,
// each finishing its current pass. Client schedules continue across
// phases.
func (r *runner) runPhase(clients []*client, d time.Duration, traced bool) phase {
	var ph phase
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph.serving[0] = r.db.ServingStats()
	io0 := r.db.IOStats()
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range clients {
		c.ops = nil
		c.tr = nil
		if traced {
			c.tr = &tracer{base: start, client: c.id}
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var passes [][]opRec
			for time.Since(start) < d {
				from := len(c.ops)
				for _, op := range r.w.pass(c.id, c.passes, len(r.queries)) {
					r.runOp(c, op)
				}
				c.passes++
				passes = append(passes, c.ops[from:])
			}
			mu.Lock()
			defer mu.Unlock()
			ph.passes = append(ph.passes, passes...)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.io = r.db.IOStats().Sub(io0)
	ph.serving[1] = r.db.ServingStats()
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for _, c := range clients {
		ph.ops = append(ph.ops, c.ops...)
		if c.tr != nil {
			ph.spans = append(ph.spans, c.tr.spans...)
		}
	}
	return ph
}
