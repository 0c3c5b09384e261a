package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pyro"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// nearestRank returns the 1-based nearest rank of the percentile given in
// parts per 10 000 among n samples.
func nearestRank(pp, n int) int {
	r := (pp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile (parts per 10 000) of xs.
func percentile(xs []float64, pp int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(pp, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 5000) }

// tailNines are the percentiles a tail latency may be reported at, in
// parts per 10 000, highest first.
var tailNines = []int{9999, 9990, 9900, 9800, 9500, 9000, 5000}

// tailPercentile picks the highest of tailNines that leaves at least 10
// of n samples beyond its nearest rank, and returns it with that count.
// Below 20 samples no percentile qualifies and it returns the maximum.
func tailPercentile(n int) (pp, beyond int) {
	for _, pp := range tailNines {
		if b := n - nearestRank(pp, n); b >= 10 {
			return pp, b
		}
	}
	return 10000, 0
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counters sums the deterministic work counters of some queries.
type counters struct {
	IO    pyro.IOStats
	Sort  pyro.SortStats
	Rows  int64
	Sorts int
}

func (c *counters) add(st pyro.ExecStats) {
	c.IO.Add(st.IO)
	c.Rows += st.Rows
	for _, s := range st.Sorts {
		c.Sorts++
		c.Sort.Comparisons += s.Comparisons
		c.Sort.RunsGenerated += s.RunsGenerated
		c.Sort.MergePasses += s.MergePasses
		c.Sort.Segments += s.Segments
		c.Sort.SpilledSegs += s.SpilledSegs
		c.Sort.PeakMemBytes = max(c.Sort.PeakMemBytes, s.PeakMemBytes)
		c.Sort.TuplesIn += s.TuplesIn
		c.Sort.TuplesOut += s.TuplesOut
		c.Sort.RadixPasses += s.RadixPasses
		c.Sort.RadixBucketScans += s.RadixBucketScans
		c.Sort.MergeBucketSkips += s.MergeBucketSkips
		c.Sort.FlatRunPages += s.FlatRunPages
		c.Sort.SpillRunsSerial += s.SpillRunsSerial
		c.Sort.SpillRunsParallel += s.SpillRunsParallel
	}
}

// counts drops the peak sort memory, a high-water mark that varies from
// run to run when segments sort in parallel, and keeps the counts that
// must repeat exactly.
func (c counters) counts() counters {
	c.Sort.PeakMemBytes = 0
	return c
}

func opCounters(ops []opRec) counters {
	var c counters
	for i := range ops {
		for _, q := range ops[i].queries {
			c.add(q.stats)
		}
	}
	return c
}

// latencies returns the op latencies in ms.
func latencies(ops []opRec) []float64 {
	xs := make([]float64, len(ops))
	for i := range ops {
		xs[i] = ms(ops[i].end.Sub(ops[i].start))
	}
	return xs
}

// endToEnd derives the end-to-end metrics of an untraced phase. log gets
// the tail percentile used and its sample count.
func endToEnd(ph phase, setupS float64, log io.Writer) map[string]metric {
	n := float64(len(ph.ops))
	lat := latencies(ph.ops)
	first := make([]float64, len(ph.ops))
	ok := 0
	for i := range ph.ops {
		first[i] = ms(ph.ops[i].firstRow())
		if !ph.ops[i].failed() {
			ok++
		}
	}
	pp, beyond := tailPercentile(len(lat))
	fmt.Fprintf(log, "latency_ms_tail is p%g of %d ops (%d beyond it)\n", float64(pp)/100, len(lat), beyond)
	c := opCounters(ph.ops)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"ops_per_s":        {ratio(n, ph.wall.Seconds()), "1/s"},
		"latency_ms_p50":   {median(lat), "ms"},
		"latency_ms_tail":  {percentile(lat, pp), "ms"},
		"first_row_ms_p50": {median(first), "ms"},
		"io_pages_per_op":  {ratio(float64(c.IO.Total()), n), "pages"},
		"alloc_mb_per_op":  {ratio(float64(ph.allocBytes)/1e6, n), "MB"},
		"ok_frac":          {ratio(float64(ok), n), "frac"},
	}
}

// perLayer derives the per-layer metrics of a traced phase from its spans
// and the counters pyro exposes. untracedP50 is the untraced phase's
// latency_ms_p50; catalog holds the set-up's catalog metrics. Every ratio
// is logged with its base.
func perLayer(ph phase, untracedP50 float64, catalog map[string]metric, log io.Writer) map[string]metric {
	n := float64(len(ph.ops))
	out := map[string]metric{}
	for k, v := range catalog {
		out[k] = v
	}
	logRatio := func(name string, num, den float64, what string) float64 {
		fmt.Fprintf(log, "%s = %s = %.10g / %.10g\n", name, what, num, den)
		return ratio(num, den)
	}

	// Per op: the time in each kind of pyro call, and the benchmark's own
	// time outside them — the self time of the op and query spans, a span's
	// duration minus that of its children.
	type key struct{ client, op int }
	perOp := map[key]map[string]float64{}
	childNs := map[key]map[int32]int64{}
	for _, s := range ph.spans {
		k := key{s.Client, s.Op}
		if perOp[k] == nil {
			perOp[k] = map[string]float64{}
			childNs[k] = map[int32]int64{}
		}
		perOp[k][s.Name] += float64(s.End-s.Start) / 1e6
		if s.Parent >= 0 {
			childNs[k][s.Parent] += s.End - s.Start
		}
	}
	for _, s := range ph.spans {
		if !isPyroCall(s.Name) {
			k := key{s.Client, s.Op}
			perOp[k]["self"] += float64(s.End-s.Start-childNs[k][s.ID]) / 1e6
		}
	}
	var optimize, query, querySelf, drain, closeMs, benchSelf []float64
	var queued, grantWait []float64
	var grantedBlocks, grants, goals, plans, orders, est float64
	for i := range ph.ops {
		op := &ph.ops[i]
		m := perOp[key{op.client, op.id}]
		waits := 0.0
		for _, q := range op.queries {
			waits += ms(q.stats.QueuedTime + q.stats.GrantWait)
			queued = append(queued, ms(q.stats.QueuedTime))
			grantWait = append(grantWait, ms(q.stats.GrantWait))
			if q.stats.GrantedBlocks > 0 {
				grants++
				grantedBlocks += float64(q.stats.GrantedBlocks)
			}
			if q.miss {
				goals += float64(q.goals)
				plans += float64(q.plansCosted)
				orders += float64(q.ordersTr)
			}
			est += q.estCost
		}
		optimize = append(optimize, m[spanOptimize])
		query = append(query, m[spanQuery])
		querySelf = append(querySelf, m[spanQuery]-waits)
		drain = append(drain, m[spanDrain])
		closeMs = append(closeMs, m[spanClose])
		benchSelf = append(benchSelf, m["self"])
	}
	c := opCounters(ph.ops)
	s0, s1 := ph.serving[0], ph.serving[1]
	hits := float64(s1.PlanCache.Hits - s0.PlanCache.Hits)
	misses := float64(s1.PlanCache.Misses - s0.PlanCache.Misses)
	gov := func(f func(pyro.ServingStats) int64) float64 { return float64(f(s1) - f(s0)) }

	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	set("pyro.optimize_ms_p50", "ms", median(optimize))
	set("pyro.plan_cache_hit_ratio", "ratio", logRatio("pyro.plan_cache_hit_ratio", hits, hits+misses, "hits / Optimize calls"))
	set("core.goals_explored_per_op", "count", ratio(goals, n))
	set("core.plans_costed_per_op", "count", ratio(plans, n))
	set("core.orders_tried_per_op", "count", ratio(orders, n))
	set("cost.est_over_actual_io", "ratio", logRatio("cost.est_over_actual_io", est, float64(c.IO.Total()), "EstimatedCost / measured pages"))
	set("pyro.query_ms_p50", "ms", median(query))
	set("pyro.query_self_ms_p50", "ms", median(querySelf))
	set("pyro.drain_ms_p50", "ms", median(drain))
	set("pyro.close_ms_p50", "ms", median(closeMs))
	set("exec.rows_per_op", "count", ratio(float64(c.Rows), n))
	set("govern.queue_ms_p99", "ms", percentile(queued, 9900))
	set("govern.grant_wait_ms_p99", "ms", percentile(grantWait, 9900))
	set("govern.grant_waits_frac", "frac", logRatio("govern.grant_waits_frac",
		gov(func(s pyro.ServingStats) int64 { return s.Governor.GrantWaits }),
		gov(func(s pyro.ServingStats) int64 { return s.Governor.Grants }), "grant waits / grants"))
	set("govern.granted_blocks_mean", "blocks", ratio(grantedBlocks, grants))
	set("govern.shrinks_per_op", "count", ratio(gov(func(s pyro.ServingStats) int64 { return s.Governor.Shrinks }), n))
	set("xsort.comparisons_per_op", "count", ratio(float64(c.Sort.Comparisons), n))
	set("xsort.radix_bucket_scans_per_op", "count", ratio(float64(c.Sort.RadixBucketScans), n))
	set("xsort.merge_bucket_skips_per_op", "count", ratio(float64(c.Sort.MergeBucketSkips), n))
	set("xsort.runs_per_op", "count", ratio(float64(c.Sort.RunsGenerated), n))
	set("xsort.merge_passes_per_op", "count", ratio(float64(c.Sort.MergePasses), n))
	set("xsort.flat_run_pages_per_op", "pages", ratio(float64(c.Sort.FlatRunPages), n))
	set("xsort.spilled_segments_per_op", "count", ratio(float64(c.Sort.SpilledSegs), n))
	set("xsort.peak_mem_kb_max", "KiB", float64(c.Sort.PeakMemBytes)/1024)
	set("xsort.useful_ratio", "ratio", logRatio("xsort.useful_ratio", float64(c.Sort.TuplesOut), float64(c.Sort.TuplesIn), "sort tuples out / tuples in"))
	set("storage.page_reads_per_op", "pages", ratio(float64(c.IO.PageReads), n))
	set("storage.page_writes_per_op", "pages", ratio(float64(c.IO.PageWrites), n))
	set("storage.run_page_reads_per_op", "pages", ratio(float64(c.IO.RunPageReads), n))
	set("storage.run_page_writes_per_op", "pages", ratio(float64(c.IO.RunPageWrites), n))
	set("storage.seeks_per_op", "count", ratio(float64(c.IO.Seeks), n))
	tracedP50 := median(latencies(ph.ops))
	set("trace.overhead_frac", "frac", logRatio("trace.overhead_frac + 1", tracedP50, untracedP50, "traced / untraced latency_ms_p50")-1)
	set("bench.self_ms_p50", "ms", median(benchSelf))
	return out
}

func isPyroCall(name string) bool {
	switch name {
	case spanOptimize, spanQuery, spanDrain, spanClose:
		return true
	}
	return false
}
