package exec

import (
	"strings"
	"testing"

	"trac/internal/sqlparser"
	"trac/internal/storage"
	"trac/internal/txn"
	"trac/internal/types"
)

// nullActivity builds a table whose rows exercise NULL in every column the
// kernel fast paths specialize on: TEXT, FLOAT, INT, and TIMESTAMP, plus a
// second column of each comparable pair for col-col kernels.
func nullActivity(t *testing.T) (*storage.Table, *txn.Manager) {
	t.Helper()
	schema, err := storage.NewSchema([]storage.Column{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
		{Name: "alt", Kind: types.KindString},
		{Name: "score", Kind: types.KindFloat},
		{Name: "thresh", Kind: types.KindFloat},
		{Name: "ts", Kind: types.KindTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("N", schema)
	m := txn.NewManager()
	tx := m.Begin()
	mkTime := func(s string) types.Value {
		ts, err := types.ParseTime(s)
		if err != nil {
			t.Fatal(err)
		}
		return types.NewTime(ts)
	}
	rows := [][]types.Value{
		{types.NewInt(1), types.NewString("idle"), types.NewString("idle"), types.NewFloat(0.1), types.NewFloat(0.5), mkTime("2006-03-11 20:37:46")},
		{types.NewInt(2), types.NewString("busy"), types.NewString("idle"), types.NewFloat(0.9), types.NewFloat(0.5), mkTime("2006-03-12 10:23:05")},
		{types.NewInt(3), types.Null, types.NewString("busy"), types.NewFloat(0.6), types.Null, mkTime("2006-03-13 00:00:00")},
		{types.NewInt(4), types.NewString("idle"), types.Null, types.Null, types.NewFloat(0.2), types.Null},
		{types.NewInt(5), types.NewString("down"), types.NewString("down"), types.NewFloat(0.5), types.NewFloat(0.5), mkTime("2006-03-11 00:00:00")},
		{types.NewInt(6), types.Null, types.Null, types.Null, types.Null, types.Null},
	}
	for _, r := range rows {
		tx.InsertRow(tbl, storage.NewRow(r, 0))
	}
	tx.Commit()
	return tbl, m
}

// kernelIDs runs exprSQL as a fused/compiled kernel over a BatchScan and
// returns the surviving ids.
func kernelIDs(t *testing.T, tbl *storage.Table, m *txn.Manager, exprSQL string) []int64 {
	t.Helper()
	layout := layoutFor(tbl, "n")
	e, err := sqlparser.ParseExpr(exprSQL)
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	k, _, _, err := CompileKernel(e, layout)
	if err != nil {
		t.Fatalf("compile kernel %q: %v", exprSQL, err)
	}
	rows, err := Drain(&BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: k})
	if err != nil {
		t.Fatalf("run kernel %q: %v", exprSQL, err)
	}
	var ids []int64
	for _, r := range rows {
		ids = append(ids, r[0].Int())
	}
	return ids
}

// rowIDs evaluates the same predicate a row at a time (visibleRows).
func rowIDs(t *testing.T, tbl *storage.Table, m *txn.Manager, exprSQL string) []int64 {
	t.Helper()
	var ids []int64
	for _, r := range visibleRows(t, tbl, m.ReadSnapshot(), exprSQL) {
		ids = append(ids, r[0].Int())
	}
	return ids
}

func idsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelNullSemantics pins the three-valued logic contract: a fused
// kernel keeps a row iff the predicate is TRUE — NULL operands make the
// conjunct UNKNOWN and the row is dropped, exactly like EvalPredicate's
// IsTrue gate. Expected survivor sets are stated explicitly, then
// cross-checked against the compiled Evaluator row by row.
func TestKernelNullSemantics(t *testing.T) {
	tbl, m := nullActivity(t)
	cases := []struct {
		expr string
		want []int64
	}{
		// TEXT col vs literal: NULL name (3, 6) is UNKNOWN on both = and <>.
		{"name = 'idle'", []int64{1, 4}},
		{"name <> 'idle'", []int64{2, 5}},
		// FLOAT col vs literal: NULL score (4, 6) never passes either side.
		{"score > 0.5", []int64{2, 3}},
		{"score <= 0.5", []int64{1, 5}},
		// INT col vs float literal (mixed numeric promotion).
		{"id >= 3.5", []int64{4, 5, 6}},
		// TIMESTAMP col vs literal (string literal coerced to time).
		{"ts < '2006-03-12 00:00:00'", []int64{1, 5}},
		// col-col TEXT: any NULL side is UNKNOWN (3, 4, 6 dropped).
		{"name = alt", []int64{1, 5}},
		{"name <> alt", []int64{2}},
		// col-col FLOAT with NULLs on both sides.
		{"score > thresh", []int64{2}},
		// IN: NULL probe is UNKNOWN; matched list wins regardless.
		{"name IN ('idle', 'down')", []int64{1, 4, 5}},
		{"name NOT IN ('idle')", []int64{2, 5}},
		// IN with a NULL member: match => TRUE, no match => UNKNOWN.
		{"name IN ('idle', NULL)", []int64{1, 4}},
		// NOT IN with a NULL member can never be TRUE.
		{"name NOT IN ('idle', NULL)", nil},
		// BETWEEN over NULL bounds/values.
		{"score BETWEEN 0.1 AND 0.5", []int64{1, 5}},
		{"score NOT BETWEEN 0.1 AND 0.5", []int64{2, 3}},
		{"score BETWEEN NULL AND 0.5", nil},
		// LIKE: NULL value is UNKNOWN.
		{"name LIKE 'b%'", []int64{2}},
		{"name NOT LIKE '%d%'", []int64{2}},
		// IS NULL / IS NOT NULL are never UNKNOWN.
		{"name IS NULL", []int64{3, 6}},
		{"name IS NOT NULL", []int64{1, 2, 4, 5}},
		// AND chain: each conjunct runs as its own kernel pass.
		{"name = 'idle' AND score > 0.05", []int64{1}},
		// General expressions fall back to the evaluator kernel.
		{"name = 'busy' OR score > 0.55", []int64{2, 3}},
		{"NOT (name = 'idle')", []int64{2, 5}},
	}
	for _, tc := range cases {
		got := kernelIDs(t, tbl, m, tc.expr)
		if !idsEqual(got, tc.want) {
			t.Errorf("kernel %q = %v, want %v", tc.expr, got, tc.want)
		}
		row := rowIDs(t, tbl, m, tc.expr)
		if !idsEqual(got, row) {
			t.Errorf("kernel %q = %v, but row by row = %v", tc.expr, got, row)
		}
	}
}

// TestKernelFusionCoverage checks which conjunct shapes compile to fused
// (type-specialized) kernels vs the evaluator fallback.
func TestKernelFusionCoverage(t *testing.T) {
	tbl, _ := nullActivity(t)
	layout := layoutFor(tbl, "n")
	cases := []struct {
		expr         string
		fused, total int
	}{
		{"name = 'idle'", 1, 1},
		{"0.5 < score", 1, 1}, // literal-col flips to col-lit
		{"name = alt", 1, 1},
		{"name IN ('a', 'b')", 1, 1},
		{"score BETWEEN 0.1 AND 0.5", 1, 1},
		{"name LIKE 'b%'", 1, 1},
		{"ts IS NULL", 1, 1},
		{"name = 'idle' AND score > 0.5 AND id < 4", 3, 3},
		{"name = 'idle' OR score > 0.5", 0, 1},
		{"name = 'idle' AND (id = 1 OR id = 2)", 1, 2},
	}
	for _, tc := range cases {
		e, err := sqlparser.ParseExpr(tc.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		_, fused, total, err := CompileKernel(e, layout)
		if err != nil {
			t.Fatalf("compile %q: %v", tc.expr, err)
		}
		if fused != tc.fused || total != tc.total {
			t.Errorf("%q: fused %d/%d, want %d/%d", tc.expr, fused, total, tc.fused, tc.total)
		}
	}
}

// TestKernelErrorsPropagate: a fused comparison over incomparable kinds
// must surface the evaluator's error, not silently drop rows.
func TestKernelErrorsPropagate(t *testing.T) {
	tbl, m := nullActivity(t)
	layout := layoutFor(tbl, "n")
	e, err := sqlparser.ParseExpr("name > ts")
	if err != nil {
		t.Fatal(err)
	}
	k, _, _, err := CompileKernel(e, layout)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(&BatchScan{Table: tbl, Snap: m.ReadSnapshot(), Kernel: k})
	if err == nil || !strings.Contains(err.Error(), "compare") {
		t.Fatalf("expected comparison error, got %v", err)
	}
}
