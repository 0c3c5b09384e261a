package xsort

import (
	"sync"

	"pyro/internal/iter"
	"pyro/internal/storage"
	"pyro/internal/types"
)

// mergeCursor is one input of a multiway merge: a run reader plus its
// lookahead tuple and that tuple's normalized key (re-encoded on read into
// the cursor's own reused buffer — one encode per tuple buys log(fan-in)
// cheap byte comparisons in the heap).
// The keyer's skip short-circuits those comparisons past any shared key
// prefix: a spilled MRS segment's runs all share the encoded bytes of the
// segment's `given` prefix, so its merges never re-scan them.
type mergeCursor struct {
	r    *storage.TupleReader
	head types.Tuple
	key  []byte
}

// advance reads the cursor's next tuple and encodes its key; ok is false
// at the end of the run.
func (c *mergeCursor) advance(ky *keyer) (ok bool, err error) {
	c.head, ok, err = c.r.Next()
	if ok {
		c.key = ky.codec.Append(c.key[:0], c.head)
	}
	return ok, err
}

// runMerger merges sorted run files into a single sorted stream. It uses a
// loser-free simple binary heap of cursors; comparisons are counted.
type runMerger struct {
	cursors     []*mergeCursor
	ky          *keyer
	comparisons *int64
}

func newRunMerger(runs []*storage.File, ky *keyer, comparisons *int64) (*runMerger, error) {
	m := &runMerger{ky: ky, comparisons: comparisons}
	for _, f := range runs {
		c := &mergeCursor{r: storage.NewTupleReader(f)}
		ok, err := c.advance(ky)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // empty run
		}
		m.cursors = append(m.cursors, c)
	}
	// Heapify.
	for i := len(m.cursors)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *runMerger) less(i, j int) bool {
	*m.comparisons++
	return m.ky.compare(m.cursors[i].key, m.cursors[j].key) < 0
}

func (m *runMerger) siftDown(i int) {
	n := len(m.cursors)
	//pyro:bounded(heap sift descends one level per iteration: at most log2(fan-in) steps)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(l, smallest) {
			smallest = l
		}
		if r < n && m.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.cursors[i], m.cursors[smallest] = m.cursors[smallest], m.cursors[i]
		i = smallest
	}
}

// next returns the smallest head among all cursors, advancing that cursor.
func (m *runMerger) next() (types.Tuple, bool, error) {
	if len(m.cursors) == 0 {
		return nil, false, nil
	}
	top := m.cursors[0]
	out := top.head
	ok, err := top.advance(m.ky)
	if err != nil {
		return nil, false, err
	}
	if ok {
		m.siftDown(0)
	} else {
		last := len(m.cursors) - 1
		m.cursors[0] = m.cursors[last]
		m.cursors = m.cursors[:last]
		if last > 0 {
			m.siftDown(0)
		}
	}
	return out, true, nil
}

// mergeGroup merges a group of runs into one fresh run in ns, removing the
// consumed inputs on success. The comparison count is returned rather than
// accumulated so concurrent group merges can tally locally and the caller
// can fold counts in deterministic group order. The keyer is only read
// (each cursor re-encodes keys into its own buffer), so concurrent group
// merges may share it. abort (nil = never) is polled per merged tuple at
// the guard stride; it may be shared with other concurrent merges, so
// each call takes its own Guard.
func mergeGroup(ns storage.TempSpace, prefix string, group []*storage.File, ky *keyer, abort func() error) (*storage.File, int64, error) {
	guard := iter.NewGuard(abort)
	var comparisons int64
	merged := ns.CreateTemp(prefix, storage.KindRun)
	w := storage.NewTupleWriter(merged)
	fail := func(err error) (*storage.File, int64, error) {
		ns.Remove(merged.Name())
		return nil, comparisons, err
	}
	m, err := newRunMerger(group, ky, &comparisons)
	if err != nil {
		return fail(err)
	}
	for {
		if err := guard.Check(); err != nil {
			return fail(err)
		}
		t, ok, err := m.next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if err := w.Write(t); err != nil {
			return fail(err)
		}
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	for _, g := range group {
		ns.Remove(g.Name())
	}
	return merged, comparisons, nil
}

// reduceRuns repeatedly merges groups of up to fanIn runs into larger runs
// until at most fanIn remain, so the final merge can proceed with one input
// buffer per run. Each intermediate pass reads and rewrites the data,
// incrementing stats.MergePasses; consumed run files are removed from ns.
//
// With SpillParallelism > 1 the groups of one pass — mutually independent
// by construction — merge concurrently on worker goroutines. Grouping is
// identical to the serial pass (consecutive runs, left to right) and each
// group's comparison count folds into stats in group order, so comparison
// and I/O totals match the serial path exactly.
func reduceRuns(cfg Config, ns storage.TempSpace, runs []*storage.File, ky *keyer, stats *SortStats) ([]*storage.File, error) {
	fanIn := cfg.fanIn()
	par := cfg.spillParallelism()
	for len(runs) > fanIn {
		stats.MergePasses++
		nGroups := numGroups(fanIn, len(runs))
		next := make([]*storage.File, nGroups)
		counts := make([]int64, nGroups)
		errs := make([]error, nGroups)
		if par <= 1 {
			for g := 0; g < nGroups; g++ {
				next[g], counts[g], errs[g] = reduceOneGroup(cfg, ns, runs, g, ky)
			}
		} else {
			sem := make(chan struct{}, par)
			var wg sync.WaitGroup
			for g := 0; g < nGroups; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					defer recoverWorker(&errs[g])
					next[g], counts[g], errs[g] = reduceOneGroup(cfg, ns, runs, g, ky)
				}(g)
			}
			wg.Wait()
		}
		for g := 0; g < nGroups; g++ {
			stats.Comparisons += counts[g]
			if errs[g] != nil {
				return nil, errs[g]
			}
		}
		runs = next
	}
	return runs, nil
}

// groupBounds returns the half-open run range of the g-th fan-in group of
// one reduction pass over n runs. Every reduction path — serial, parallel,
// and the pipelined harvest in MRS — must group through this function:
// identical grouping is what keeps comparison and I/O totals independent
// of parallelism (the golden tests' invariant).
func groupBounds(g, fanIn, n int) (lo, hi int) {
	lo = g * fanIn
	hi = lo + fanIn
	if hi > n {
		hi = n
	}
	return lo, hi
}

// numGroups returns how many fan-in groups one reduction pass over n runs
// forms.
func numGroups(fanIn, n int) int { return (n + fanIn - 1) / fanIn }

// reduceOneGroup merges the g-th fan-in group of runs (a single-run group
// passes through unmerged, as in the serial algorithm).
func reduceOneGroup(cfg Config, ns storage.TempSpace, runs []*storage.File, g int, ky *keyer) (*storage.File, int64, error) {
	lo, hi := groupBounds(g, cfg.fanIn(), len(runs))
	group := runs[lo:hi]
	if len(group) == 1 {
		return group[0], 0, nil
	}
	return mergeGroup(ns, cfg.TempPrefix, group, ky, cfg.Abort)
}
