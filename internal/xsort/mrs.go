package xsort

import (
	"fmt"

	"pyro/internal/iter"
	"pyro/internal/keys"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// MRS is the paper's modified replacement selection (§3.1): an external
// sort that exploits a known partial sort order of its input. Given target
// order o = (a1..an) and input order o' = (a1..ak), k < n, the input is
// consumed segment by segment (maximal groups equal on a1..ak). Each
// segment is sorted independently on the suffix (ak+1..an):
//
//   - a segment that fits in memory is sorted with zero disk I/O and its
//     tuples are emitted as soon as the segment's end is seen — pipelined,
//     early output;
//   - a segment larger than memory spills per-memory-batch runs and merges
//     just those runs.
//
// With k = 0 (no known prefix) the whole input is a single segment and MRS
// degenerates to a load-sort-merge external sort, matching the paper's
// observation that MRS converges to SRS at the one-segment extreme (Fig 9).
//
// Because segments are mutually independent, their sorts are embarrassingly
// parallel. With Config.Parallelism = P > 1, in-memory segment sorts run on
// a bounded pool of worker goroutines while the consumer goroutine keeps
// reading ahead — at most P segments beyond the one being emitted, read in
// small quanta interleaved with emission so all input consumption stays on
// the consumer goroutine (the input iterator is never touched concurrently).
// Emission order is preserved by a FIFO of segment futures. The paper's
// pipelining guarantee survives in the bounded form: segment i begins
// emitting before segment i+P+1 has been read, and the first segment is
// always collected strictly demand-driven, so early output is retained.
// With P = 1 reading is strictly demand-driven exactly as in the serial
// paper algorithm: segment i is fully emitted before segment i+1 is read
// past its first tuple.
//
// Oversized (spilling) segments are concurrent too. Each spilled segment
// owns a storage.SpillArena — an isolated temp namespace with a lock-free
// I/O ledger — and with Config.SpillParallelism = S > 1 its run formation
// moves off the consumer: every time a memory batch fills, the batch is
// handed to a flush job that sorts it and writes the run into the arena
// while the consumer keeps reading the segment (input consumption still
// never leaves the consumer goroutine). At most S flush jobs are in flight,
// bounding transient memory at S batches. When the segment reaches the head
// of the emission queue, its first run-reduction pass overlaps the tail of
// run formation: each fan-in group of runs merges (on worker goroutines,
// grouped exactly as the serial pass would) as soon as its member runs
// land. With S = 1 spilled segments sort, spill and merge inline on the
// consumer goroutine — the paper's serial algorithm, unchanged.
type MRS struct {
	input  iter.Iterator
	schema *types.Schema
	target sortord.Order
	given  sortord.Order // known input order; must be a prefix of target
	cfg    Config
	ks     types.KeySpec // full target key
	ky     *keyer        // full-key keyer; segments bind per-segment skips
	prefix int           // |given|
	par    int           // resolved segment-sort parallelism
	spar   int           // resolved spill parallelism
	stats  SortStats

	// Input state.
	pending     types.Tuple // lookahead: first tuple of the next segment
	pendingKT   keyed       // pending with its sort key (wrapped by src)
	src         *tupleSource
	inputDone   bool
	passthrough bool // given == target: nothing to do

	// Segment pipeline: col accumulates the segment currently being read;
	// segq holds collected segments in input order (sorting or sorted);
	// cur is the segment being emitted.
	col  *segCollector
	segq []*segment
	cur  *segment

	liveBytes int64      // buffered tuple bytes across all live segments
	pumpErr   error      // read-ahead failure, surfaced on the next Next call
	guard     iter.Guard // strided Config.Abort poll (consumer goroutine only)

	opened bool
	closed bool
}

// segCollector accumulates one partial-sort segment as it is read. ky is
// the segment's skip-bound keyer: keys are full target-order encodings
// (wrapped by the shared consumer-side keyer), and within this segment
// they all share the encoded bytes of the `given` prefix, so the
// segment's comparisons slice past them and its radix sorts seed there.
type segCollector struct {
	first    types.Tuple // segment representative for prefix comparisons
	ky       *keyer
	buf      []keyed
	memBytes int64
	spilled  bool
	sp       *spillState // non-nil once the segment has spilled
}

// spillState is the spill side of one oversized segment: its private arena
// and the runs formed into it. In serial mode (SpillParallelism 1) runs
// holds files written inline; in parallel mode jobs holds the in-flight and
// completed flush jobs, harvested in dispatch order by the consumer. ky is
// the segment's skip-bound keyer, shared by formation sorts and reduction
// merges.
type spillState struct {
	arena  *storage.SpillArena
	ky     *keyer
	runs   []*storage.File // serial-mode formation runs
	jobs   []*flushJob     // parallel-mode formation jobs, dispatch order
	reaped int             // jobs whose buffers the consumer has returned to the budget
}

// flushJob is one parallel run-formation unit: sort one memory batch of an
// oversized segment and write it to the segment's arena. All fields other
// than buf/memBytes are written by the worker before close(done) and read
// by the consumer only after <-done.
type flushJob struct {
	buf      []keyed
	memBytes int64
	done     chan struct{}
	run      *storage.File
	tally    sortTally
	err      error
}

// inflight counts dispatched jobs whose completion the consumer has not yet
// observed.
func (sp *spillState) inflight() int { return len(sp.jobs) - sp.reaped }

// segment is a collected segment queued for emission. In-memory segments
// sorted on a worker publish their work tally through done; the consumer
// folds it into SortStats when the segment reaches the head of the queue,
// keeping the stats single-writer and their totals deterministic.
type segment struct {
	ky       *keyer // segment's skip-bound keyer (compare/merge/radix seed)
	buf      []keyed
	order    []int32 // emission permutation over buf (in-memory segments)
	memBytes int64
	tally    sortTally
	done     chan struct{} // non-nil iff sorted asynchronously
	err      error         // worker panic during the async sort, if any
	spilled  bool
	sp       *spillState

	pos     int
	merging *runMerger
}

// pumpQuantum is how many input tuples one emitted tuple "buys" of
// read-ahead in parallel mode; small enough that lookahead grows gradually
// and the early-output property stays tight.
const pumpQuantum = 64

// NewMRS builds a partial-order-exploiting sort. given must be a prefix of
// target (ε is allowed and yields single-segment behaviour); if given equals
// target the operator is a passthrough.
func NewMRS(input iter.Iterator, schema *types.Schema, target, given sortord.Order, cfg Config) (*MRS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if target.IsEmpty() {
		return nil, fmt.Errorf("xsort: empty target order")
	}
	if !given.PrefixOf(target) {
		return nil, fmt.Errorf("xsort: input order %v is not a prefix of target %v", given, target)
	}
	ks, err := types.MakeKeySpec(schema, target)
	if err != nil {
		return nil, err
	}
	codec, err := keys.FromKeySpec(ks)
	if err != nil {
		return nil, err
	}
	if cfg.TempPrefix == "" {
		cfg.TempPrefix = "mrs"
	}
	prefix := given.Len()
	// Keys are full target-order encodings; each segment binds a keyer
	// whose skip covers the encoded `given` prefix (constant within the
	// segment by definition), so segment comparisons still touch only the
	// suffix bytes. Versus a suffix-only codec this spends one prefix
	// encode per tuple (and its key-arena bytes) to keep a single codec
	// across all segments and give radix a known seed depth instead of a
	// prefix rescan.
	return &MRS{
		input:       input,
		schema:      schema,
		target:      target.Clone(),
		given:       given.Clone(),
		cfg:         cfg,
		ks:          ks,
		ky:          &keyer{codec: codec},
		prefix:      prefix,
		par:         cfg.parallelism(),
		spar:        cfg.spillParallelism(),
		guard:       iter.NewGuard(cfg.Abort),
		passthrough: prefix == target.Len(),
	}, nil
}

// segmentKeyer binds the shared keyer to one segment: skip is the encoded
// byte length of the segment's `given`-prefix values (keys.Codec.PrefixLen
// on the segment's first tuple — prefix columns of variable width make it
// segment-specific).
func (m *MRS) segmentKeyer(first types.Tuple) *keyer {
	if m.prefix == 0 {
		return m.ky.withSkip(0)
	}
	return m.ky.withSkip(m.ky.codec.PrefixLen(first, m.prefix))
}

// Stats returns the operator's work counters.
func (m *MRS) Stats() *SortStats { return &m.stats }

// Order returns the produced sort order.
func (m *MRS) Order() sortord.Order { return m.target }

// Open opens the input. Unlike SRS, no input is consumed here beyond one
// lookahead tuple — MRS is pipelined.
func (m *MRS) Open() error {
	if m.opened {
		return fmt.Errorf("xsort: MRS opened twice")
	}
	m.opened = true
	if err := m.input.Open(); err != nil {
		return err
	}
	// The source wraps each tuple with its sort key as it is pulled. A
	// passthrough (given == target) never compares keys, so it gets a
	// codec-less keyer and skips the encodes entirely.
	ky := m.ky
	if m.passthrough {
		ky = &keyer{}
	}
	m.src = newTupleSource(m.input, m.schema, ky, m.cfg)
	kt, ok, err := m.src.next()
	if err != nil {
		return err
	}
	if !ok {
		m.inputDone = true
		return nil
	}
	m.stats.TuplesIn++
	m.pending = kt.t
	m.pendingKT = kt
	return nil
}

// samePrefix reports whether b belongs to the segment started by a.
func (m *MRS) samePrefix(a, b types.Tuple) bool {
	m.stats.Comparisons++
	return m.ks.ComparePrefix(a, b, m.prefix) == 0
}

// Next returns the next tuple of the target order.
func (m *MRS) Next() (types.Tuple, bool, error) {
	if m.pumpErr != nil {
		return nil, false, m.pumpErr
	}
	//pyro:bounded(each iteration emits a tuple or retires/adopts one segment, and emit/pump poll the abort guard internally)
	for {
		// Serve from the segment at the head of the pipeline.
		if m.cur != nil {
			t, ok, err := m.emit()
			if err != nil {
				return nil, false, err
			}
			if ok {
				m.stats.TuplesOut++
				// A read-ahead failure must not swallow the tuple already
				// taken from the current segment: deliver t now, surface
				// the error on the next call.
				m.pumpErr = m.pump()
				return t, true, nil
			}
			m.release(m.cur)
			m.cur = nil
		}
		// Adopt the next collected segment, waiting out its sort.
		if len(m.segq) > 0 {
			seg := m.segq[0]
			m.segq = m.segq[1:]
			if err := m.adopt(seg); err != nil {
				return nil, false, err
			}
			continue
		}
		if m.pending == nil {
			return nil, false, nil
		}
		if m.passthrough {
			t := m.pending
			if err := m.advance(); err != nil {
				return nil, false, err
			}
			m.stats.TuplesOut++
			return t, true, nil
		}
		// Nothing in flight: collect the next segment demand-driven.
		seg, err := m.collect(-1)
		if err != nil {
			return nil, false, err
		}
		if seg != nil {
			m.segq = append(m.segq, seg)
		}
	}
}

// emit serves the next tuple of the current segment, from its sorted buffer
// or its per-segment run merge.
func (m *MRS) emit() (types.Tuple, bool, error) {
	s := m.cur
	if s.merging != nil {
		return s.merging.next()
	}
	if s.pos >= len(s.order) {
		return nil, false, nil
	}
	t := s.buf[s.order[s.pos]].t
	s.pos++
	return t, true, nil
}

// adopt makes seg the current emission head: waits for an asynchronous sort
// to finish (folding its work tally into the stats) or, for a spilled
// segment, reduces and opens its run merge.
func (m *MRS) adopt(seg *segment) error {
	if seg.done != nil {
		<-seg.done
		if seg.err != nil {
			return seg.err
		}
		seg.tally.addTo(&m.stats)
	}
	if seg.spilled {
		// seg is already off the queue and not yet the emission head, so
		// nothing downstream owns its arena: if adoption does not complete —
		// an error, or a panic unwinding toward the cursor's containment —
		// the arena must be released here or its runs outlive Close.
		adopted := false
		defer func() {
			if !adopted {
				m.releaseSpill(seg.sp)
			}
		}()
		runs, err := m.segmentRuns(seg.sp)
		if err == nil {
			runs, err = reduceRuns(m.cfg, seg.sp.arena, runs, seg.ky, &m.stats)
		}
		if err == nil {
			seg.sp.runs = runs
			seg.merging, err = newRunMerger(runs, seg.ky, &m.stats.Comparisons)
		}
		if err != nil {
			return err
		}
		adopted = true
	}
	m.cur = seg
	return nil
}

// segmentRuns produces the full ordered run list of a spilled segment. In
// serial mode the runs are already on disk. In parallel mode it performs
// the pipelined harvest: when the segment holds more runs than the merge
// fan-in, the first reduction pass is dispatched group by group as member
// runs land, overlapping reduction with the tail of run formation; the
// remaining passes (rare) fall to reduceRuns afterwards. Comparison counts
// fold in deterministic order — formation jobs first (dispatch order), then
// merge groups (group order) — so totals equal the serial path's.
func (m *MRS) segmentRuns(sp *spillState) ([]*storage.File, error) {
	if len(sp.jobs) == 0 {
		return sp.runs, nil
	}
	fanIn := m.cfg.fanIn()
	if len(sp.jobs) <= fanIn {
		// No reduction needed: wait out the jobs in dispatch order.
		if err := m.harvestJobs(sp); err != nil {
			return nil, err
		}
		runs := make([]*storage.File, len(sp.jobs))
		for i, j := range sp.jobs {
			runs[i] = j.run
		}
		return runs, nil
	}

	// Pipelined first pass: each fan-in group of formation jobs merges as
	// soon as its members land, while later jobs may still be running.
	// Groups are consecutive in dispatch order — exactly the serial pass.
	m.stats.MergePasses++
	type groupRes struct {
		out         *storage.File
		comparisons int64
		err         error
		done        chan struct{}
	}
	nGroups := numGroups(fanIn, len(sp.jobs))
	groups := make([]*groupRes, nGroups)
	sem := make(chan struct{}, m.spar)
	for g := 0; g < nGroups; g++ {
		lo, hi := groupBounds(g, fanIn, len(sp.jobs))
		res := &groupRes{done: make(chan struct{})}
		groups[g] = res
		go func(jobs []*flushJob, res *groupRes) {
			defer close(res.done)
			defer recoverWorker(&res.err)
			runs := make([]*storage.File, 0, len(jobs))
			for _, j := range jobs {
				<-j.done
				if j.err != nil {
					res.err = j.err
					return
				}
				runs = append(runs, j.run)
			}
			if len(runs) == 1 {
				// Single-run group passes through, as in the serial pass.
				res.out = runs[0]
				return
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			res.out, res.comparisons, res.err = mergeGroup(sp.arena, m.cfg.TempPrefix, runs, sp.ky, m.cfg.Abort)
		}(sp.jobs[lo:hi], res)
	}

	// Fold formation tallies in dispatch order, then group merges in
	// group order; wait everything out even on error so the arena can be
	// released without racing in-flight writers.
	err := m.harvestJobs(sp)
	runs := make([]*storage.File, 0, nGroups)
	for _, res := range groups {
		<-res.done
		m.stats.Comparisons += res.comparisons
		if res.err != nil && err == nil {
			err = res.err
		}
		runs = append(runs, res.out)
	}
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// reapJob observes job i's completion (blocking until the worker is done)
// and returns its buffer bytes to the memory budget exactly once — the
// reaped index is the single guard for that invariant; every wait-and-reap
// site goes through here.
func (m *MRS) reapJob(sp *spillState, i int) *flushJob {
	j := sp.jobs[i]
	<-j.done
	if i >= sp.reaped {
		m.liveBytes -= j.memBytes
		sp.reaped = i + 1
	}
	return j
}

// harvestJobs waits out every formation job in dispatch order, folding its
// work tally and returning its buffer bytes to the memory budget.
// The first job error is returned after all jobs have completed.
func (m *MRS) harvestJobs(sp *spillState) error {
	var firstErr error
	for i := range sp.jobs {
		j := m.reapJob(sp, i)
		j.tally.addTo(&m.stats)
		if j.err != nil && firstErr == nil {
			firstErr = j.err
		}
	}
	return firstErr
}

// reapDone returns the buffers of already-completed jobs (in dispatch
// order, without blocking) to the memory budget, so read-ahead is gated on
// actual buffered bytes rather than on batches a worker has already spilled.
func (m *MRS) reapDone(sp *spillState) {
	if sp == nil {
		return
	}
	for sp.reaped < len(sp.jobs) {
		select {
		case <-sp.jobs[sp.reaped].done:
			m.reapJob(sp, sp.reaped)
		default:
			return
		}
	}
}

// releaseSpill waits out any in-flight spill work and releases the
// segment's arena, dropping its files and merging its I/O ledger into the
// disk's. Waiting first is what makes release safe: an arena must not
// disappear under a worker still writing runs into it.
func (m *MRS) releaseSpill(sp *spillState) {
	if sp == nil {
		return
	}
	for i := range sp.jobs {
		m.reapJob(sp, i)
	}
	if sp.arena != nil {
		sp.arena.Release()
		sp.arena = nil
	}
	sp.runs = nil
}

// release drops an exhausted segment: its buffer memory leaves the
// accounting and its spill arena (if any) is released.
func (m *MRS) release(seg *segment) {
	m.liveBytes -= seg.memBytes
	seg.buf = nil
	seg.order = nil
	m.releaseSpill(seg.sp)
	seg.sp = nil
}

// pump advances read-ahead in parallel mode: after each emitted tuple the
// consumer reads up to pumpQuantum more input tuples, dispatching completed
// segments to the worker pool, as long as fewer than Parallelism segments
// are queued beyond the one being emitted AND the buffered tuples across
// all live segments stay under the memory budget. The budget gate keeps
// total sort memory at roughly M even with a deep pool: lookahead stops
// growing once M is reached, so only the demand-driven path (one emitting
// plus one collecting segment) can exceed it, as in the serial algorithm.
func (m *MRS) pump() error {
	if m.par <= 1 || m.pending == nil || len(m.segq) >= m.par {
		return nil
	}
	// Buffers that spill workers have already written out no longer hold
	// memory; reap them — for the collecting segment and for queued spilled
	// segments awaiting adoption — before consulting the budget gate, or
	// phantom bytes would throttle read-ahead until the next adopt.
	for _, seg := range m.segq {
		m.reapDone(seg.sp)
	}
	if m.col != nil {
		m.reapDone(m.col.sp)
	}
	if m.liveBytes >= m.cfg.memoryBytes() {
		return nil
	}
	seg, err := m.collect(pumpQuantum)
	if err != nil {
		return err
	}
	if seg != nil {
		m.segq = append(m.segq, seg)
	}
	return nil
}

// collect reads input into the current segment collector. With limit < 0 it
// consumes the whole remaining segment; otherwise it reads at most limit
// tuples and may leave the segment partially collected for the next call.
// It returns a non-nil segment exactly when a segment boundary (or EOF) was
// reached; the returned segment is already dispatched for sorting when the
// pool is enabled.
func (m *MRS) collect(limit int) (*segment, error) {
	if m.pending == nil {
		return nil, nil
	}
	if m.col == nil {
		m.stats.Segments++
		m.col = &segCollector{first: m.pending, ky: m.segmentKeyer(m.pending)}
	}
	c := m.col
	read := 0
	for {
		// An oversized segment keeps the consumer in this loop for its whole
		// extent; the abort poll is what lets a cancellation interrupt it.
		if err := m.guard.Check(); err != nil {
			return nil, err
		}
		t := m.pending
		c.buf = append(c.buf, m.pendingKT)
		c.memBytes += int64(t.MemSize())
		m.liveBytes += int64(t.MemSize())
		if m.liveBytes > m.stats.PeakMemBytes {
			m.stats.PeakMemBytes = m.liveBytes
		}
		// The budget is re-read per tuple, not cached across the loop: a
		// governed query's live allowance (xsort.Budget) can shrink
		// mid-segment under spill pressure, and the next buffering decision
		// must see it.
		if c.memBytes >= m.cfg.memoryBytes() {
			c.spilled = true
			if err := m.flush(c); err != nil {
				return nil, err
			}
		}
		if err := m.advance(); err != nil {
			return nil, err
		}
		if m.pending == nil || !m.samePrefix(c.first, m.pending) {
			m.col = nil
			return m.finish(c)
		}
		read++
		if limit >= 0 && read >= limit {
			return nil, nil
		}
	}
}

// flush turns the collector's buffered tuples into one run of the
// (oversized) segment, written into the segment's spill arena. With
// SpillParallelism 1 the batch is sorted and written inline on the consumer
// goroutine (the paper's serial algorithm); otherwise the batch is handed
// to a flush job on the worker pool and the consumer keeps reading, with at
// most SpillParallelism jobs in flight.
func (m *MRS) flush(c *segCollector) error {
	if c.sp == nil {
		c.sp = &spillState{arena: m.cfg.Disk.NewArenaTapped(m.cfg.Tap), ky: c.ky}
	}
	if m.spar <= 1 {
		order, tally := formOrder(c.buf, c.ky)
		tally.addTo(&m.stats)
		run, err := writeRun(c.sp.arena, m.cfg.TempPrefix, c.buf, order)
		if err != nil {
			return err
		}
		c.sp.runs = append(c.sp.runs, run)
		m.stats.RunsGenerated++
		m.stats.SpillRunsSerial++
		c.buf = c.buf[:0]
		m.liveBytes -= c.memBytes
		c.memBytes = 0
		return nil
	}

	// Backpressure: with SpillParallelism jobs already in flight, wait for
	// the oldest before dispatching another, bounding transient memory at
	// SpillParallelism batches.
	m.reapDone(c.sp)
	for c.sp.inflight() >= m.spar {
		m.reapJob(c.sp, c.sp.reaped)
	}
	job := &flushJob{buf: c.buf, memBytes: c.memBytes, done: make(chan struct{})}
	c.sp.jobs = append(c.sp.jobs, job)
	m.stats.RunsGenerated++
	m.stats.SpillRunsParallel++
	arena, prefix, ky := c.sp.arena, m.cfg.TempPrefix, c.ky
	go func() {
		defer close(job.done)
		defer recoverWorker(&job.err)
		var order []int32
		order, job.tally = formOrder(job.buf, ky)
		job.run, job.err = writeRun(arena, prefix, job.buf, order)
		job.buf = nil // batch is on disk; release it before the consumer reaps
	}()
	// The batch's bytes stay in liveBytes until the job completes and is
	// reaped; hand the collector a fresh buffer.
	c.buf = nil
	c.memBytes = 0
	return nil
}

// finish turns a fully read collector into a queued segment, dispatching
// the in-memory sort to a worker when the pool is enabled.
func (m *MRS) finish(c *segCollector) (*segment, error) {
	if c.spilled {
		m.stats.SpilledSegs++
		if len(c.buf) > 0 {
			if err := m.flush(c); err != nil {
				m.releaseSpill(c.sp)
				return nil, err
			}
		}
		return &segment{spilled: true, sp: c.sp, ky: c.ky}, nil
	}
	seg := &segment{buf: c.buf, memBytes: c.memBytes, ky: c.ky}
	if m.par > 1 {
		seg.done = make(chan struct{})
		go func() {
			defer close(seg.done)
			defer recoverWorker(&seg.err)
			seg.order, seg.tally = formOrder(seg.buf, seg.ky)
		}()
	} else {
		var tally sortTally
		seg.order, tally = formOrder(seg.buf, seg.ky)
		tally.addTo(&m.stats)
	}
	return seg, nil
}

// advance pulls the next input tuple into pending (nil at EOF), already
// wrapped with its sort key. TuplesIn counts here, per tuple the sort
// actually takes — source-side chunk buffering is invisible to the stats.
func (m *MRS) advance() error {
	if m.inputDone {
		m.pending = nil
		m.pendingKT = keyed{}
		return nil
	}
	kt, ok, err := m.src.next()
	if err != nil {
		return err
	}
	if !ok {
		m.inputDone = true
		m.pending = nil
		m.pendingKT = keyed{}
		return nil
	}
	m.stats.TuplesIn++
	m.pending = kt.t
	m.pendingKT = kt
	return nil
}

// Close releases any remaining spill arenas — of the emitting segment, of
// queued segments, and of a partially collected spilling segment — waiting
// out their in-flight flush jobs first, and closes the input. In-flight
// in-memory segment sorts finish on their own and are reclaimed by the
// garbage collector.
func (m *MRS) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	if m.cur != nil {
		m.release(m.cur)
		m.cur = nil
	}
	for _, seg := range m.segq {
		m.releaseSpill(seg.sp)
		seg.sp = nil
	}
	m.segq = nil
	if m.col != nil {
		m.releaseSpill(m.col.sp)
		m.col = nil
	}
	if m.src != nil {
		m.src.release()
	}
	return m.input.Close()
}
