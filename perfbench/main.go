// Command perfbench is pyro's benchmark. It drives pyro only through its
// public API, on inputs generated from a seed, and checks every result
// against a plain-Go reference evaluator.
//
//	perfbench --workload olap-report --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs untraced for half the time and traced for the
// other half, and reports the per-layer metrics derived from the traced
// half's spans and pyro's counters. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. It exits
// 1 when a check fails and 2 on bad arguments. README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pyro"
)

// setups is how many times a run sets up its database; setup_s is the
// median.
const setups = 5

// spanDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/perfbench"

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: olap-report, topk-serve or adhoc-plan")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1) {
		err = errors.New("want --workload, --seed, --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets up w's database several times, checks every distinct query
// against the reference on each, then runs the measured phases. Findings
// of the self-checks go to log and clear Correct.
func measure(w *workload, seed int64, d time.Duration, traced bool, log io.Writer) (result, error) {
	fmt.Fprintf(log, "workload %s, seed %d, %d closed-loop client(s), config %+v\n", w.name, seed, w.clients, w.config)
	tables, rels := w.generate(seed)
	byName := make(map[string]*table, len(tables))
	for _, t := range tables {
		byName[t.name] = t
		fmt.Fprintf(log, "table %s: %d rows\n", t.name, len(t.rows))
	}
	fmt.Fprintf(log, "%d distinct queries; inputs sha256 %s\n", len(rels), inputHash(tables, rels))
	began := time.Now()
	answers := make([]expected, len(rels))
	for i, q := range rels {
		var err error
		if answers[i], err = answer(q, byName); err != nil {
			return result{}, fmt.Errorf("reference answer of query %d: %w", i, err)
		}
		if i < 8 {
			fmt.Fprintf(log, "query/%d: %s -> %d rows\n", i, q, answers[i].fp.rows)
		}
	}
	fmt.Fprintf(log, "reference answers took %.2fs\n", time.Since(began).Seconds())

	checksFailed := 0
	problem := func(format string, args ...any) {
		fmt.Fprintf(log, "CHECK FAILED: "+format+"\n", args...)
		checksFailed++
	}

	// Set-up: generate, load and index, timed. The first and the last
	// database then run every distinct query once, untimed, as the check
	// against the reference and as the warm-up. Both must do exactly the
	// same work.
	began = time.Now()
	var setupS, loadS []float64
	var work counters
	var r *runner
	for i := 0; i < setups; i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		tables, _ := w.generate(seed)
		t1 := time.Now()
		db := pyro.Open(w.config)
		if err := load(db, tables); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadS = append(loadS, time.Since(t1).Seconds())
		r = newRunner(w, db, rels, answers)
		if i != 0 && i != setups-1 {
			continue
		}
		c := &client{}
		for q := range rels {
			r.runOp(c, []int{q})
			if err := c.ops[q].queries[0].err; err != nil {
				problem("set-up %d, query/%d: %v", i, q, err)
			}
		}
		if got := opCounters(c.ops); i == 0 {
			work = got
		} else if got.counts() != work.counts() {
			problem("set-up %d did other work than set-up 0:\n  %+v\n  %+v", i, got, work)
		}
	}
	fmt.Fprintf(log, "setup_s of each set-up: %v; set-ups and their checks took %.2fs\n", setupS, time.Since(began).Seconds())
	fmt.Fprintf(log, "work counters of the check: %+v\n", work)
	fmt.Fprintf(log, "work counts sha256 %x\n", sha256.Sum256([]byte(fmt.Sprintf("%+v", work.counts()))))
	tablePages, err := scanPages(r.db, tables)
	if err != nil {
		return result{}, err
	}

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = &client{id: i}
	}
	var res result
	var phases []phase
	if !traced {
		ph := r.runPhase(clients, d, false)
		phases = append(phases, ph)
		res.Metrics = endToEnd(ph, median(setupS), log)
	} else {
		plain := r.runPhase(clients, d/2, false)
		tr := r.runPhase(clients, d/2, true)
		phases = append(phases, plain, tr)
		catalog := map[string]metric{
			"catalog.load_s":      {median(loadS), "s"},
			"catalog.table_pages": {float64(tablePages), "pages"},
		}
		res.Metrics = perLayer(tr, median(latencies(plain.ops)), catalog, log)
		if err := writeSpans(w.name, tr.spans, log); err != nil {
			return result{}, err
		}
	}

	for pi, ph := range phases {
		res.Attempted += len(ph.ops)
		for i := range ph.ops {
			if !ph.ops[i].failed() {
				continue
			}
			res.Failed++
			for _, q := range ph.ops[i].queries {
				if q.err != nil && res.Failed <= 5 {
					fmt.Fprintf(log, "op failed: %v\n", q.err)
				}
			}
		}
		// I/O attribution: the queries' own I/O adds up to the device's.
		if got := opCounters(ph.ops).IO; got != ph.io {
			problem("phase %d: per-query I/O sums to %+v, the device counted %+v", pi, got, ph.io)
		}
		// Determinism: with one client every pass repeats the work of the
		// set-up's check, traced or not.
		if w.clients == 1 {
			for k, pass := range ph.passes {
				if got := opCounters(pass); got.counts() != work.counts() {
					problem("phase %d, pass %d did other work than the set-up check:\n  %+v\n  %+v", pi, k, got, work)
					break
				}
			}
		}
	}
	res.Correct = res.Failed == 0 && checksFailed == 0
	return res, nil
}

// newRunner binds the distinct queries to db.
func newRunner(w *workload, db *pyro.Database, rels []*rel, answers []expected) *runner {
	r := &runner{w: w, db: db, queries: make([]compiled, len(rels))}
	for i, q := range rels {
		r.queries[i] = compiled{name: fmt.Sprintf("query/%d", i), q: q.query(db), want: answers[i]}
	}
	return r
}

// scanPages returns the pages full scans of the tables read: their size
// on disk.
func scanPages(db *pyro.Database, tables []*table) (int64, error) {
	var pages int64
	for _, t := range tables {
		plan, err := db.Optimize(db.Scan(t.name))
		if err != nil {
			return 0, err
		}
		cur, err := db.Query(context.Background(), plan)
		if err != nil {
			return 0, err
		}
		for cur.Next() {
		}
		if err := errors.Join(cur.Err(), cur.Close()); err != nil {
			return 0, err
		}
		pages += cur.Stats().IO.PageReads
	}
	return pages, nil
}

// inputHash hashes the generated tables and queries, so runs can show
// they measured the same inputs.
func inputHash(tables []*table, rels []*rel) string {
	h := sha256.New()
	var buf [8]byte
	for _, t := range tables {
		fmt.Fprintf(h, "%s %v %v %v\n", t.name, t.cols, t.cluster, t.indices)
		for _, row := range t.rows {
			for _, v := range row {
				switch x := v.(type) {
				case int64:
					binary.LittleEndian.PutUint64(buf[:], uint64(x))
					h.Write(buf[:])
				case string:
					fmt.Fprintf(h, "%q", x)
				}
			}
		}
	}
	for _, q := range rels {
		fmt.Fprintln(h, q)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeSpans writes a traced phase's spans as JSON lines.
func writeSpans(workload string, spans []span, log io.Writer) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(log, "%d spans written to %s\n", len(spans), path)
	return nil
}
