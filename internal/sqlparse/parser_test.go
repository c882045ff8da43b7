package sqlparse

import (
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

func cat() Catalog {
	return Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C", "E"),
		"T": data.NewSchema("C", "D"),
	}
}

// parse parses one SELECT query through ParseStatement.
func parse(sql string, cat Catalog) (Parsed, error) {
	st, err := ParseStatement(sql, cat)
	return st.Select, err
}

func TestParsePaperQuery(t *testing.T) {
	// Example 1.1 verbatim.
	p, err := parse(`SELECT S.A, S.C, SUM(R.B * T.D * S.E)
		FROM R NATURAL JOIN S NATURAL JOIN T
		GROUP BY S.A, S.C;`, cat())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Query.Free.SameSet(data.NewSchema("A", "C")) {
		t.Errorf("free = %v", p.Query.Free)
	}
	if len(p.Query.Rels) != 3 {
		t.Errorf("rels = %v", p.Query.RelNames())
	}
	if strings.Join(p.SumVars, ",") != "B,D,E" {
		t.Errorf("sum vars = %v", p.SumVars)
	}
	if p.Constant != 1 {
		t.Errorf("constant = %v", p.Constant)
	}
}

func TestParseCountQuery(t *testing.T) {
	// Example 2.2.
	for _, sql := range []string{
		"SELECT SUM(1) FROM R NATURAL JOIN S NATURAL JOIN T;",
		"SELECT COUNT(*) FROM R NATURAL JOIN S NATURAL JOIN T",
	} {
		p, err := parse(sql, cat())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(p.SumVars) != 0 || len(p.Query.Free) != 0 {
			t.Errorf("%s: parsed %v / %v", sql, p.SumVars, p.Query.Free)
		}
	}
}

func TestParseUnqualifiedColumns(t *testing.T) {
	p, err := parse("SELECT A, SUM(B) FROM R NATURAL JOIN S GROUP BY A", cat())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Query.Free.Equal(data.NewSchema("A")) || len(p.SumVars) != 1 {
		t.Errorf("parsed %v / %v", p.Query.Free, p.SumVars)
	}
}

func TestParseConstantFactor(t *testing.T) {
	p, err := parse("SELECT SUM(2 * B) FROM R", cat())
	if err != nil {
		t.Fatal(err)
	}
	if p.Constant != 2 || len(p.SumVars) != 1 {
		t.Errorf("constant %v, vars %v", p.Constant, p.SumVars)
	}
	lift := p.LiftFloat()
	if got := lift("B", data.Int(5)); got != 10 {
		t.Errorf("lift(B,5) = %v, want 10", got)
	}
	if got := lift("A", data.Int(5)); got != 1 {
		t.Errorf("lift(A,5) = %v, want 1", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		sql  string
		frag string
	}{
		{"SELECT SUM(B) FROM Z", "not in catalog"},
		{"SELECT SUM(B), SUM(1) FROM R", "multiple aggregates"},
		{"SELECT A FROM R", "needs a SUM"},
		{"SELECT A, SUM(B) FROM R", "GROUP BY"},
		{"SELECT SUM(Z) FROM R", "not in any relation"},
		{"SELECT A, SUM(A) FROM R GROUP BY A", "GROUP BY column"},
		{"SELECT SUM(B) FROM R NATURAL R", "JOIN"},
		{"SELECT SUM(B FROM R", ")"},
		{"SELECT SUM(2) FROM R", "SUM(1)"},
		{"SELECT R.Z, SUM(B) FROM R GROUP BY R.Z", "no column"},
		{"SELECT Q.B, SUM(B) FROM R GROUP BY Q.B", "unknown relation"},
		{"SELECT SUM(B) FROM R; extra", "trailing"},
		{"FROM R", "SELECT"},
		{"SELECT SUM(#) FROM R", "unexpected character"},
	}
	for _, c := range cases {
		_, err := parse(c.sql, cat())
		if err == nil {
			t.Errorf("%q: expected error", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not mention %q", c.sql, err, c.frag)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := parse("select sum(1) from R natural join S group by A, C;", Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
	}); err == nil {
		t.Error("plain columns absent from select list should still fail the GROUP BY check")
	}
	p, err := parse("select A, C, sum(B) from R natural join S group by A, C;", Catalog{
		"R": data.NewSchema("A", "B"),
		"S": data.NewSchema("A", "C"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Query.Free.SameSet(data.NewSchema("A", "C")) {
		t.Errorf("free = %v", p.Query.Free)
	}
}

// TestParsedQueryEndToEnd drives a parsed query through the engine and
// checks the aggregate against a brute-force computation.
func TestParsedQueryEndToEnd(t *testing.T) {
	p, err := parse(`SELECT S.A, S.C, SUM(R.B * T.D * S.E)
		FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY S.A, S.C`, cat())
	if err != nil {
		t.Fatal(err)
	}
	o, err := vorder.Build(p.Query)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ivm.New[float64](p.Query, o, ring.Float{}, p.LiftFloat(), ivm.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	var rTuples, sTuples, tTuples []map[string]int64
	insert := func(rel string, schema data.Schema, store *[]map[string]int64) {
		d := data.NewRelation[float64](ring.Float{}, schema)
		m := map[string]int64{}
		tup := make(data.Tuple, len(schema))
		for i, v := range schema {
			m[v] = int64(rng.Intn(4))
			tup[i] = data.Int(m[v])
		}
		d.Merge(tup, 1)
		*store = append(*store, m)
		if err := eng.ApplyDelta(rel, d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		insert("R", cat()["R"], &rTuples)
		insert("S", cat()["S"], &sTuples)
		insert("T", cat()["T"], &tTuples)
	}

	// Brute force SUM(B*D*E) per (A, C).
	want := map[[2]int64]int64{}
	for _, r := range rTuples {
		for _, s := range sTuples {
			if r["A"] != s["A"] {
				continue
			}
			for _, tt := range tTuples {
				if s["C"] != tt["C"] {
					continue
				}
				want[[2]int64{s["A"], s["C"]}] += r["B"] * tt["D"] * s["E"]
			}
		}
	}
	got := map[[2]int64]float64{}
	eng.Result().Iterate(func(tup data.Tuple, pay float64) bool {
		ai := eng.Result().Schema().IndexOf("A")
		ci := eng.Result().Schema().IndexOf("C")
		got[[2]int64{tup[ai].AsInt(), tup[ci].AsInt()}] = pay
		return true
	})
	for k, v := range want {
		if v == 0 {
			continue
		}
		if got[k] != float64(v) {
			t.Fatalf("group %v: %v, want %d", k, got[k], v)
		}
	}
	for k, v := range got {
		if float64(want[k]) != v {
			t.Fatalf("unexpected group %v = %v", k, v)
		}
	}
}
