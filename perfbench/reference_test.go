package main

import (
	"reflect"
	"strings"
	"testing"
)

func testTables() map[string]*table {
	emp := &table{
		name: "emp",
		cols: []column{{name: "dept"}, {name: "name", kind: kindString}, {name: "pay"}},
		rows: [][]any{
			{int64(1), "a", int64(10)},
			{int64(1), "b", int64(20)},
			{int64(2), "c", int64(30)},
			{int64(3), "d", int64(40)},
		},
	}
	dept := &table{
		name: "dept",
		cols: []column{{name: "d_id"}, {name: "d_name", kind: kindString}},
		rows: [][]any{{int64(1), "x"}, {int64(2), "z"}, {int64(2), "y"}},
	}
	return map[string]*table{"emp": emp, "dept": dept}
}

func TestEvalHandComputed(t *testing.T) {
	tables := testTables()
	for _, tc := range []struct {
		q    *rel
		cols []string
		rows [][]any
	}{{
		// emp ⋈ dept: a, b match x; c matches y and z; d matches nothing.
		q: scan("emp").join(scan("dept"), [2]string{"dept", "d_id"}).
			groupBy([]string{"d_name"}, agg{name: "n", fn: aggCount}, agg{name: "total", fn: aggSum, arg: "pay"}).
			orderBy("d_name"),
		cols: []string{"d_name", "n", "total"},
		rows: [][]any{{"x", int64(2), int64(30)}, {"y", int64(1), int64(30)}, {"z", int64(1), int64(30)}},
	}, {
		q:    scan("emp").filter(cond{col: "pay", op: opGe, lit: int64(20)}, cond{col: "dept", op: opGt, lit: int64(1)}).project("name"),
		cols: []string{"name"},
		rows: [][]any{{"c"}, {"d"}},
	}, {
		q:    scan("emp").orderBy("name").limitTo(2),
		cols: []string{"dept", "name", "pay"},
		rows: [][]any{{int64(1), "a", int64(10)}, {int64(1), "b", int64(20)}},
	}, {
		q:    scan("dept").filter(cond{col: "d_name", op: opEq, lit: "y"}).orderBy("d_id").limitTo(5),
		cols: []string{"d_id", "d_name"},
		rows: [][]any{{int64(2), "y"}},
	}} {
		got, err := eval(tc.q, tables)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if !reflect.DeepEqual(got.cols, tc.cols) || !reflect.DeepEqual(got.rows, tc.rows) {
			t.Errorf("%s:\n got %v %v\nwant %v %v", tc.q, got.cols, got.rows, tc.cols, tc.rows)
		}
	}
}

func TestEvalRejectsTieAcrossLimit(t *testing.T) {
	// Both dept-1 rows sort first, so LIMIT 1 could return either.
	_, err := eval(scan("emp").orderBy("dept").limitTo(1), testTables())
	if err == nil || !strings.Contains(err.Error(), "tie") {
		t.Fatalf("eval = %v, want a tie error", err)
	}
}

// feed streams rows through a checker the way a cursor would.
func feed(want *expected, rows [][]any) error {
	var c checker
	c.reset(want)
	for _, row := range rows {
		for i, v := range row {
			switch x := v.(type) {
			case int64:
				*c.dest[i].(*int64) = x
			case string:
				*c.dest[i].(*string) = x
			}
		}
		c.row()
	}
	return c.verdict()
}

func TestCheckerAgainstReference(t *testing.T) {
	q := scan("emp").orderBy("dept")
	want, err := answer(q, testTables())
	if err != nil {
		t.Fatal(err)
	}
	rows := testTables()["emp"].rows
	// Rows tied on the ORDER BY key may come in any order.
	swapped := [][]any{rows[1], rows[0], rows[2], rows[3]}
	if err := feed(&want, swapped); err != nil {
		t.Errorf("tie order: %v", err)
	}
	for name, bad := range map[string][][]any{
		"missing row":     rows[:3],
		"extra row":       append(append([][]any(nil), rows...), rows[3]),
		"out of order":    {rows[0], rows[2], rows[1], rows[3]},
		"wrong value":     {rows[0], rows[1], rows[2], {int64(3), "d", int64(41)}},
		"columns swapped": {rows[0], rows[1], rows[2], {int64(40), "d", int64(3)}},
	} {
		if err := feed(&want, bad); err == nil {
			t.Errorf("%s: checker accepted it", name)
		}
	}
}
