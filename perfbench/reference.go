package main

// The reference evaluator answers the workloads' queries in plain Go —
// maps for joins and groups, a stable sort for ORDER BY and an insertion
// buffer for Top-K — so every pyro result is checked against an answer no
// pyro code computed.

import (
	"fmt"
	"sort"
	"strconv"
)

// kind is a column type. Values are int64 or string.
type kind uint8

const (
	kindInt kind = iota
	kindString
)

type column struct {
	name  string
	kind  kind
	width int // average width for the cost model, 0 = pyro's default
}

type index struct {
	name    string
	key     []string
	include []string
}

// table is one generated base table with the physical design pyro gets.
type table struct {
	name    string
	cols    []column
	cluster []string
	indices []index
	rows    [][]any
}

// relation is an evaluated result: column names, their kinds and rows.
type relation struct {
	cols  []string
	kinds []kind
	rows  [][]any
}

func (r relation) ordinal(col string) (int, error) {
	for i, c := range r.cols {
		if c == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("reference: column %q not in %v", col, r.cols)
}

func (r relation) ordinals(cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		o, err := r.ordinal(c)
		if err != nil {
			return nil, err
		}
		idx[i] = o
	}
	return idx, nil
}

// eval answers q over tables.
func eval(q *rel, tables map[string]*table) (relation, error) {
	if q.op == relScan {
		t, ok := tables[q.table]
		if !ok {
			return relation{}, fmt.Errorf("reference: no table %q", q.table)
		}
		out := relation{rows: t.rows}
		for _, c := range t.cols {
			out.cols = append(out.cols, c.name)
			out.kinds = append(out.kinds, c.kind)
		}
		return out, nil
	}
	evalIn := q.in
	if q.op == relLimit && q.in.op == relOrder {
		// Top-K: only the k+1 smallest rows of the ORDER BY input matter
		// (the extra row exposes a tie across the cut).
		evalIn = q.in.in
	}
	in, err := eval(evalIn, tables)
	if err != nil {
		return relation{}, err
	}
	if evalIn != q.in {
		idx, err := in.ordinals(q.in.cols)
		if err != nil {
			return relation{}, err
		}
		in.rows = smallest(in.rows, idx, q.limit+1)
	}
	switch q.op {
	case relFilter:
		return evalFilter(in, q.where)
	case relJoin:
		right, err := eval(q.right, tables)
		if err != nil {
			return relation{}, err
		}
		return evalJoin(in, right, q.on)
	case relProject:
		idx, err := in.ordinals(q.cols)
		if err != nil {
			return relation{}, err
		}
		out := relation{cols: q.cols, kinds: pick(in.kinds, idx), rows: make([][]any, len(in.rows))}
		for i, row := range in.rows {
			out.rows[i] = pick(row, idx)
		}
		return out, nil
	case relGroup:
		return evalGroup(in, q.cols, q.aggs)
	case relOrder:
		idx, err := in.ordinals(q.cols)
		if err != nil {
			return relation{}, err
		}
		rows := append([][]any(nil), in.rows...)
		sort.SliceStable(rows, func(i, j int) bool { return compareOn(rows[i], rows[j], idx) < 0 })
		return relation{cols: in.cols, kinds: in.kinds, rows: rows}, nil
	case relLimit:
		if int64(len(in.rows)) <= q.limit {
			return in, nil
		}
		// A tie across the cut would make the answer depend on the tie
		// order, which no engine guarantees: the workload must avoid it.
		if idx, err := in.ordinals(q.in.order()); err != nil {
			return relation{}, err
		} else if q.limit > 0 && compareOn(in.rows[q.limit-1], in.rows[q.limit], idx) == 0 {
			return relation{}, fmt.Errorf("reference: rows tie across LIMIT %d", q.limit)
		}
		return relation{cols: in.cols, kinds: in.kinds, rows: in.rows[:q.limit]}, nil
	}
	return relation{}, fmt.Errorf("reference: unknown op %d", q.op)
}

// smallest returns the k smallest rows on idx in order, ties in input
// order, as a stable sort would.
func smallest(rows [][]any, idx []int, k int64) [][]any {
	var best [][]any
	for _, row := range rows {
		if int64(len(best)) == k && compareOn(row, best[k-1], idx) >= 0 {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return compareOn(best[i], row, idx) > 0 })
		if int64(len(best)) < k {
			best = append(best, nil)
		}
		copy(best[at+1:], best[at:])
		best[at] = row
	}
	return best
}

func pick[T any](row []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = row[j]
	}
	return out
}

func evalFilter(in relation, where []cond) (relation, error) {
	type test struct {
		col, other int
		c          cond
	}
	tests := make([]test, len(where))
	for i, c := range where {
		col, err := in.ordinal(c.col)
		if err != nil {
			return relation{}, err
		}
		tests[i] = test{col: col, other: -1, c: c}
		if c.other != "" {
			if tests[i].other, err = in.ordinal(c.other); err != nil {
				return relation{}, err
			}
		}
	}
	out := relation{cols: in.cols, kinds: in.kinds}
	for _, row := range in.rows {
		keep := true
		for _, t := range tests {
			rhs := t.c.lit
			if t.other >= 0 {
				rhs = row[t.other]
			}
			d := compareValues(row[t.col], rhs)
			switch t.c.op {
			case opEq:
				keep = keep && d == 0
			case opGt:
				keep = keep && d > 0
			case opGe:
				keep = keep && d >= 0
			}
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

func evalJoin(left, right relation, on [][2]string) (relation, error) {
	lk := make([]string, len(on))
	rk := make([]string, len(on))
	for i, p := range on {
		lk[i], rk[i] = p[0], p[1]
	}
	li, err := left.ordinals(lk)
	if err != nil {
		return relation{}, err
	}
	ri, err := right.ordinals(rk)
	if err != nil {
		return relation{}, err
	}
	byKey := make(map[string][][]any)
	for _, row := range right.rows {
		k := keyOf(row, ri)
		byKey[k] = append(byKey[k], row)
	}
	out := relation{
		cols:  append(append([]string(nil), left.cols...), right.cols...),
		kinds: append(append([]kind(nil), left.kinds...), right.kinds...),
	}
	for _, l := range left.rows {
		for _, r := range byKey[keyOf(l, li)] {
			out.rows = append(out.rows, append(append(make([]any, 0, len(l)+len(r)), l...), r...))
		}
	}
	return out, nil
}

func evalGroup(in relation, cols []string, aggs []agg) (relation, error) {
	gi, err := in.ordinals(cols)
	if err != nil {
		return relation{}, err
	}
	out := relation{cols: append([]string(nil), cols...), kinds: pick(in.kinds, gi)}
	args := make([]int, len(aggs))
	for i, a := range aggs {
		args[i] = -1
		k := kindInt
		if a.arg != "" {
			if args[i], err = in.ordinal(a.arg); err != nil {
				return relation{}, err
			}
			if a.fn == aggSum {
				k = in.kinds[args[i]]
			}
		}
		if k != kindInt {
			return relation{}, fmt.Errorf("reference: sum over non-integer column %q", a.arg)
		}
		out.cols = append(out.cols, a.name)
		out.kinds = append(out.kinds, kindInt)
	}
	type group struct {
		key  []any
		accs []int64
	}
	groups := make(map[string]*group)
	var order []*group
	for _, row := range in.rows {
		k := keyOf(row, gi)
		g, ok := groups[k]
		if !ok {
			g = &group{key: pick(row, gi), accs: make([]int64, len(aggs))}
			groups[k] = g
			order = append(order, g)
		}
		for i, a := range aggs {
			if a.fn == aggSum {
				g.accs[i] += row[args[i]].(int64)
			} else {
				g.accs[i]++
			}
		}
	}
	for _, g := range order {
		row := append(make([]any, 0, len(out.cols)), g.key...)
		for _, v := range g.accs {
			row = append(row, v)
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// keyOf encodes the values at idx as a map key.
func keyOf(row []any, idx []int) string {
	var b []byte
	for _, i := range idx {
		switch v := row[i].(type) {
		case int64:
			b = strconv.AppendInt(append(b, 'i'), v, 10)
		case string:
			b = strconv.AppendQuote(append(b, 's'), v)
		}
		b = append(b, 0)
	}
	return string(b)
}

// compareValues orders two int64s or two strings.
func compareValues(a, b any) int {
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		y := b.(string)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("perfbench: cannot compare %T", a))
}

func compareOn(a, b []any, idx []int) int {
	for _, i := range idx {
		if d := compareValues(a[i], b[i]); d != 0 {
			return d
		}
	}
	return 0
}

// fingerprint summarises a result: its row count and an order-insensitive
// hash of its row multiset (the sum of the row hashes).
type fingerprint struct {
	rows int64
	sum  uint64
}

func (f *fingerprint) add(h uint64) {
	f.rows++
	f.sum += h
}

// Row hashes chain a splitmix64 finalizer over the row's values, so the
// same value in another column, or two values swapped, hash differently.
const hashSeed uint64 = 0x9e3779b97f4a7c15

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func hashInt(h uint64, v int64) uint64 { return mix(h ^ uint64(v)) }

func hashString(h uint64, s string) uint64 {
	h = mix(h ^ uint64(len(s)) ^ 0x5bd1e995)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return mix(h)
}

func rowHash(row []any) uint64 {
	h := hashSeed
	for _, v := range row {
		switch x := v.(type) {
		case int64:
			h = hashInt(h, x)
		case string:
			h = hashString(h, x)
		}
	}
	return h
}

// expected is what a query's result must match: its fingerprint, the
// column kinds to scan it with, and the columns it must be sorted on.
type expected struct {
	fp    fingerprint
	kinds []kind
	order []int
}

// answer evaluates q and summarises the result.
func answer(q *rel, tables map[string]*table) (expected, error) {
	res, err := eval(q, tables)
	if err != nil {
		return expected{}, err
	}
	order, err := res.ordinals(q.order())
	if err != nil {
		return expected{}, err
	}
	want := expected{kinds: res.kinds, order: order}
	for _, row := range res.rows {
		want.fp.add(rowHash(row))
	}
	return want, nil
}
