// Package harness reproduces every table and figure of the paper's
// evaluation (§6) on the simulated engine. Each Run* function builds its
// dataset, runs the experiment and prints the same rows/series the paper
// reports: Figure 7 (A1), Figure 8 (A2), Figure 9 (A3), Query 2 (A4),
// Figures 1/2 (Example 1), Figures 10–13 (B1), Figure 14 (B2), Figure 15
// (B3), Figure 16 (optimizer scalability) and the §6.3 plan-refinement
// timing. Absolute numbers differ from the paper (different substrate);
// the shapes — who wins and by roughly what factor — are the reproduction
// target (see EXPERIMENTS.md).
package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"pyro/internal/catalog"
	"pyro/internal/core"
	"pyro/internal/exec"
	"pyro/internal/storage"
	"pyro/internal/xsort"
)

// Scale shrinks or grows every experiment's dataset (1 = defaults tuned
// for seconds-long runs) and carries the sort-execution knobs the CLI
// exposes, so every experiment runs under the same regime.
type Scale struct {
	Factor float64
	// SortParallelism bounds concurrent MRS segment sorts per enforcer
	// (0 = GOMAXPROCS, 1 = the paper's serial algorithm).
	SortParallelism int
	// SpillParallelism bounds concurrent spill jobs per enforcer
	// (0 = inherit SortParallelism, 1 = serial spilling).
	SpillParallelism int
	// Limit is the Top-K row count for the limit-aware experiments
	// (pyro-bench -limit; 0 = the default of 10). The two-phase cost model
	// plans the Top-K extension experiment under this row budget.
	Limit int64
}

// limit returns the effective Top-K row count.
func (s Scale) limit() int64 {
	if s.Limit > 0 {
		return s.Limit
	}
	return 10
}

// DefaultScale returns Factor 1.
func DefaultScale() Scale { return Scale{Factor: 1} }

func (s Scale) rows(base int64) int64 {
	if s.Factor <= 0 {
		return base
	}
	n := int64(float64(base) * s.Factor)
	if n < 1 {
		n = 1
	}
	return n
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// runStats captures one measured execution.
type runStats struct {
	rows     int64
	elapsed  time.Duration
	io       storage.IOStats
	firstOut time.Duration // time to first output tuple
}

// measure drains an operator, charging I/O to disk and timing the run.
func measure(disk *storage.Disk, op exec.Operator) (runStats, error) {
	disk.ResetStats()
	start := time.Now()
	if err := op.Open(); err != nil {
		return runStats{}, err
	}
	var rs runStats
	for {
		_, ok, err := op.Next()
		if err != nil {
			return runStats{}, errors.Join(err, op.Close())
		}
		if !ok {
			break
		}
		if rs.rows == 0 {
			rs.firstOut = time.Since(start)
		}
		rs.rows++
	}
	if err := op.Close(); err != nil {
		return runStats{}, err
	}
	rs.elapsed = time.Since(start)
	rs.io = disk.Stats()
	return rs, nil
}

// buildAndMeasure compiles a plan and executes it under scale's sort knobs.
func buildAndMeasure(disk *storage.Disk, plan *core.Plan, sortBlocks int, scale Scale) (runStats, error) {
	op, err := core.Build(plan, core.BuildConfig{
		Disk:                 disk,
		SortMemoryBlocks:     sortBlocks,
		SortParallelism:      scale.SortParallelism,
		SortSpillParallelism: scale.SpillParallelism,
	})
	if err != nil {
		return runStats{}, err
	}
	return measure(disk, op)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

// sortRegime labels which execution regime a sort enforcer exercised —
// pipelined in-memory, serial spilling, or worker-pool spilling — so
// experiment tables distinguish measurements that silently serialized on
// the spill path from ones that ran it concurrently.
func sortRegime(s *exec.Sort) string {
	st := s.SortStats()
	switch {
	case !s.Spilled():
		return "in-memory"
	case st.SpillRunsParallel > 0:
		return "spill-par"
	default:
		return "spill-serial"
	}
}

// sortedProjection builds IndexScan -> Project(cols) for the sort
// experiments.
func sortedProjection(ix *catalog.Index, cols []string) (exec.Operator, error) {
	scan := exec.NewIndexScan(ix)
	return exec.NewProjectNames(scan, cols)
}

// mkSortConfig builds an xsort config on the disk under scale's sort knobs.
func mkSortConfig(disk *storage.Disk, blocks int, scale Scale) xsort.Config {
	return xsort.Config{
		Disk:             disk,
		MemoryBlocks:     blocks,
		Parallelism:      scale.SortParallelism,
		SpillParallelism: scale.SpillParallelism,
	}
}

// RunAll executes every experiment in paper order.
func RunAll(w io.Writer, scale Scale) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Scale) error
	}{
		{"example1", RunExample1},
		{"a1", RunA1},
		{"a2", RunA2},
		{"a3", RunA3},
		{"a4", RunA4},
		{"b1", RunB1},
		{"b2", RunB2},
		{"b3", RunB3},
		{"scalability", RunScalability},
		{"refine", RunRefinement},
		{"ext", RunExtensions},
	}
	for _, s := range steps {
		if err := s.fn(w, scale); err != nil {
			return fmt.Errorf("harness: experiment %s: %w", s.name, err)
		}
	}
	return nil
}

// Experiments maps CLI names to runners.
var Experiments = map[string]func(io.Writer, Scale) error{
	"example1":    RunExample1,
	"a1":          RunA1,
	"a2":          RunA2,
	"a3":          RunA3,
	"a4":          RunA4,
	"b1":          RunB1,
	"b2":          RunB2,
	"b3":          RunB3,
	"scalability": RunScalability,
	"refine":      RunRefinement,
	"ext":         RunExtensions,
}
