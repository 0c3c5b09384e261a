package main

import (
	"fmt"
	"strings"

	"pyro"
)

// A rel is a query the benchmark states once and runs twice: through
// pyro's Query builder (query) and through the plain-Go reference
// evaluator (eval). It has only the operators the workloads use.
type rel struct {
	op    relOp
	table string      // relScan
	in    *rel        // every op but relScan
	right *rel        // relJoin
	on    [][2]string // relJoin: left column = right column
	where []cond      // relFilter: a conjunction
	cols  []string    // relProject, relGroup (grouping columns), relOrder
	aggs  []agg       // relGroup
	limit int64       // relLimit
}

type relOp uint8

const (
	relScan relOp = iota
	relFilter
	relJoin
	relProject
	relGroup
	relOrder
	relLimit
)

type cmpOp uint8

const (
	opEq cmpOp = iota
	opGt
	opGe
)

var cmpNames = [...]string{opEq: "=", opGt: ">", opGe: ">="}

// cond is `col op lit`, or `col op other` when other is set. Literals are
// int64 or string.
type cond struct {
	col   string
	op    cmpOp
	lit   any
	other string
}

type aggFn uint8

const (
	aggCount aggFn = iota // COUNT(*) when arg is empty
	aggSum
)

type agg struct {
	name string
	fn   aggFn
	arg  string
}

func scan(table string) *rel { return &rel{op: relScan, table: table} }

func (r *rel) filter(c ...cond) *rel { return &rel{op: relFilter, in: r, where: c} }

func (r *rel) join(right *rel, on ...[2]string) *rel {
	return &rel{op: relJoin, in: r, right: right, on: on}
}

func (r *rel) project(cols ...string) *rel { return &rel{op: relProject, in: r, cols: cols} }

func (r *rel) groupBy(cols []string, aggs ...agg) *rel {
	return &rel{op: relGroup, in: r, cols: cols, aggs: aggs}
}

func (r *rel) orderBy(cols ...string) *rel { return &rel{op: relOrder, in: r, cols: cols} }

func (r *rel) limitTo(k int64) *rel { return &rel{op: relLimit, in: r, limit: k} }

// order returns the columns the result must be sorted on.
func (r *rel) order() []string {
	switch r.op {
	case relOrder:
		return r.cols
	case relLimit:
		return r.in.order()
	}
	return nil
}

// query builds the pyro form of r.
func (r *rel) query(db *pyro.Database) *pyro.Query {
	switch r.op {
	case relScan:
		return db.Scan(r.table)
	case relFilter:
		preds := make([]pyro.Expr, len(r.where))
		for i, c := range r.where {
			preds[i] = c.expr()
		}
		return r.in.query(db).Filter(pyro.And(preds...))
	case relJoin:
		preds := make([]pyro.Expr, len(r.on))
		for i, p := range r.on {
			preds[i] = pyro.Eq(pyro.Col(p[0]), pyro.Col(p[1]))
		}
		return r.in.query(db).Join(r.right.query(db), pyro.And(preds...))
	case relProject:
		return r.in.query(db).Select(r.cols...)
	case relGroup:
		aggs := make([]pyro.Agg, len(r.aggs))
		for i, a := range r.aggs {
			aggs[i] = pyro.Agg{Name: a.name, Func: pyro.Count}
			if a.fn == aggSum {
				aggs[i].Func = pyro.Sum
			}
			if a.arg != "" {
				aggs[i].Arg = pyro.Col(a.arg)
			}
		}
		return r.in.query(db).GroupBy(r.cols, aggs...)
	case relOrder:
		return r.in.query(db).OrderBy(r.cols...)
	case relLimit:
		return r.in.query(db).Limit(r.limit)
	}
	panic(fmt.Sprintf("perfbench: unknown rel op %d", r.op))
}

func (c cond) expr() pyro.Expr {
	rhs := pyro.Col(c.other)
	if c.other == "" {
		switch v := c.lit.(type) {
		case int64:
			rhs = pyro.Int(v)
		case string:
			rhs = pyro.Str(v)
		default:
			panic(fmt.Sprintf("perfbench: unsupported literal %T", c.lit))
		}
	}
	switch c.op {
	case opGt:
		return pyro.Gt(pyro.Col(c.col), rhs)
	case opGe:
		return pyro.Ge(pyro.Col(c.col), rhs)
	}
	return pyro.Eq(pyro.Col(c.col), rhs)
}

// String renders r as SQL-like text. It names every distinct query, so
// equal strings mean equal queries.
func (r *rel) String() string {
	var b strings.Builder
	r.write(&b)
	return b.String()
}

func (r *rel) write(b *strings.Builder) {
	if r.op == relScan {
		b.WriteString(r.table)
		return
	}
	b.WriteString("(")
	r.in.write(b)
	switch r.op {
	case relFilter:
		for i, c := range r.where {
			b.WriteString(sep(i, " WHERE ", " AND "))
			if c.other != "" {
				fmt.Fprintf(b, "%s %s %s", c.col, cmpNames[c.op], c.other)
			} else {
				fmt.Fprintf(b, "%s %s %#v", c.col, cmpNames[c.op], c.lit)
			}
		}
	case relJoin:
		b.WriteString(" JOIN ")
		r.right.write(b)
		for i, p := range r.on {
			b.WriteString(sep(i, " ON ", " AND "))
			fmt.Fprintf(b, "%s = %s", p[0], p[1])
		}
	case relProject:
		fmt.Fprintf(b, " SELECT %s", strings.Join(r.cols, ", "))
	case relGroup:
		fmt.Fprintf(b, " GROUP BY %s", strings.Join(r.cols, ", "))
		for _, a := range r.aggs {
			fn := "count"
			if a.fn == aggSum {
				fn = "sum"
			}
			arg := a.arg
			if arg == "" {
				arg = "*"
			}
			fmt.Fprintf(b, ", %s(%s) AS %s", fn, arg, a.name)
		}
	case relOrder:
		fmt.Fprintf(b, " ORDER BY %s", strings.Join(r.cols, ", "))
	case relLimit:
		fmt.Fprintf(b, " LIMIT %d", r.limit)
	}
	b.WriteString(")")
}

func sep(i int, first, rest string) string {
	if i == 0 {
		return first
	}
	return rest
}
