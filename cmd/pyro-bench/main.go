// Command pyro-bench reproduces the paper's evaluation tables and figures
// on the simulated engine.
//
// Usage:
//
//	pyro-bench [-exp all|example1|a1|a2|a3|a4|b1|b2|b3|scalability|refine] [-scale f]
//	           [-sort-par n] [-spill-par n] [-limit k]
//
// -scale multiplies dataset sizes (1.0 ≈ seconds per experiment).
// Execution tables report first_row_ms (time to the first output tuple —
// the pipelining benefit a streaming consumer sees) alongside time_ms.
// -sort-par bounds concurrent MRS segment sorts per enforcer (0 =
// GOMAXPROCS, 1 = the paper's serial algorithm); -spill-par bounds
// concurrent spill jobs when a sort exceeds memory (0 = inherit -sort-par,
// 1 = serial spilling). Comparison and I/O counts are identical at every
// parallelism setting, so the paper's tables stay valid while wall-clock
// times drop. -limit sets the
// Top-K row count the limit-aware experiment plans under (default 10):
// its table shows the two-phase cost model's estimated full-drain and
// startup costs next to measured time_ms/first_row_ms for the pipelined
// and blocking arms.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pyro/internal/harness"
)

func main() {
	var names []string
	for n := range harness.Experiments {
		names = append(names, n)
	}
	sort.Strings(names)

	exp := flag.String("exp", "all", "experiment to run: all, serve, or one of "+strings.Join(names, ", "))
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	sortPar := flag.Int("sort-par", 0, "MRS segment-sort parallelism (0 = GOMAXPROCS, 1 = serial)")
	spillPar := flag.Int("spill-par", 0, "spill-path parallelism (0 = inherit -sort-par, 1 = serial)")
	limit := flag.Int64("limit", 0, "Top-K row count for the limit-aware experiments (0 = default 10)")
	// serve-mode knobs (ignored by the paper experiments).
	queries := flag.Int("cursors", 2000, "serve: total Top-K queries to run")
	workers := flag.Int("workers", 64, "serve: concurrent client goroutines")
	topK := flag.Int64("topk", 5, "serve: LIMIT per query")
	maxQ := flag.Int("max-queries", 32, "serve: admission gate width (0 = unlimited)")
	globalBlks := flag.Int("global-blocks", 64, "serve: global sort-memory pool in blocks")
	sortBlks := flag.Int("sort-blocks", 16, "serve: per-sort memory ask in blocks")
	// chaos-mode knobs (the serve knobs above shape its workload too).
	faults := flag.Int("faults", 200, "chaos: fault points drawn into the schedule")
	chaosSeed := flag.Int64("chaos-seed", 0, "chaos: schedule seed (0 = derive from the clock; printed for replay)")
	flag.Parse()

	if *exp == "chaos" {
		err := runChaos(os.Stdout, chaosConfig{
			Queries:     *queries,
			Workers:     *workers,
			TopK:        *topK,
			MaxQueries:  *maxQ,
			GlobalBlks:  *globalBlks,
			PerSortBlks: *sortBlks,
			Faults:      *faults,
			Seed:        *chaosSeed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyro-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *exp == "serve" {
		err := runServe(os.Stdout, serveConfig{
			Queries:     *queries,
			Workers:     *workers,
			TopK:        *topK,
			MaxQueries:  *maxQ,
			GlobalBlks:  *globalBlks,
			PerSortBlks: *sortBlks,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyro-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *limit < 0 {
		fmt.Fprintf(os.Stderr, "pyro-bench: negative -limit %d\n", *limit)
		os.Exit(2)
	}
	s := harness.Scale{Factor: *scale, SortParallelism: *sortPar, SpillParallelism: *spillPar, Limit: *limit}
	if *exp == "all" {
		if err := harness.RunAll(os.Stdout, s); err != nil {
			fmt.Fprintln(os.Stderr, "pyro-bench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := harness.Experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "pyro-bench: unknown experiment %q (have: %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := fn(os.Stdout, s); err != nil {
		fmt.Fprintln(os.Stderr, "pyro-bench:", err)
		os.Exit(1)
	}
}
