package sqlparse

import (
	"errors"
	"strings"
	"testing"

	"fivm/internal/data"
)

// TestParseErrorPositions checks that malformed input is reported as a
// ParseError carrying the offset and token of the offending spot.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		frag string // expected message fragment
		tok  string // expected offending token
		pos  int    // expected byte offset of the token
	}{
		{
			name: "missing GROUP BY column",
			sql:  "SELECT A, C, SUM(B) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A",
			frag: "missing from GROUP BY",
			tok:  "C",
			pos:  10,
		},
		{
			name: "GROUP BY column missing from select",
			sql:  "SELECT A, SUM(B) FROM R NATURAL JOIN S GROUP BY A, E",
			frag: "missing from the select list",
			tok:  "E",
			pos:  51,
		},
		{
			name: "unknown relation",
			sql:  "SELECT SUM(B) FROM R NATURAL JOIN Nope",
			frag: `unknown relation "Nope"`,
			tok:  "Nope",
			pos:  34,
		},
		{
			name: "duplicate alias",
			sql:  "SELECT SUM(B) FROM R NATURAL JOIN S NATURAL JOIN R",
			frag: `duplicate relation "R"`,
			tok:  "R",
			pos:  49,
		},
		{
			name: "bad qualifier",
			sql:  "SELECT Zz.A, SUM(B) FROM R GROUP BY Zz.A",
			frag: "unknown relation",
			tok:  "Zz",
			pos:  7,
		},
		{
			name: "stray token",
			sql:  "SELECT SUM(B) FROM R GROUP BY , A",
			frag: "column name",
			tok:  ",",
			pos:  30,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(c.sql, cat())
			if err == nil {
				t.Fatalf("%q: expected error", c.sql)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("%q: error %v is not a ParseError", c.sql, err)
			}
			if !strings.Contains(pe.Msg, c.frag) {
				t.Errorf("%q: message %q does not mention %q", c.sql, pe.Msg, c.frag)
			}
			if pe.Token != c.tok {
				t.Errorf("%q: offending token %q, want %q", c.sql, pe.Token, c.tok)
			}
			if pe.Pos != c.pos {
				t.Errorf("%q: offset %d, want %d", c.sql, pe.Pos, c.pos)
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Errorf("%q: rendered error %q lacks the offset", c.sql, err)
			}
		})
	}
}

func TestParseStatementSelect(t *testing.T) {
	st, err := ParseStatement("SELECT A, SUM(B) FROM R NATURAL JOIN S GROUP BY A;", cat())
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtSelect {
		t.Fatalf("kind = %v", st.Kind)
	}
	if !st.Select.Query.Free.SameSet(data.NewSchema("A")) {
		t.Errorf("free = %v", st.Select.Query.Free)
	}
}

func TestParseStatementCreateView(t *testing.T) {
	st, err := ParseStatement(
		"CREATE VIEW sums AS SELECT A, SUM(B * D) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY A;", cat())
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtCreateView || st.ViewName != "sums" {
		t.Fatalf("kind = %v name = %q", st.Kind, st.ViewName)
	}
	if st.Select.Query.Name != "sums" {
		t.Errorf("query name = %q, want the view name", st.Select.Query.Name)
	}
	if len(st.Select.SumVars) != 2 {
		t.Errorf("sum vars = %v", st.Select.SumVars)
	}
}

func TestParseStatementDropView(t *testing.T) {
	st, err := ParseStatement("drop view sums", cat())
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtDropView || st.ViewName != "sums" {
		t.Fatalf("kind = %v name = %q", st.Kind, st.ViewName)
	}
}

func TestParseStatementErrors(t *testing.T) {
	cases := []struct {
		sql  string
		frag string
	}{
		{"CREATE VIEW AS SELECT SUM(B) FROM R", "view name"},
		{"CREATE VIEW v SELECT SUM(B) FROM R", "AS"},
		{"CREATE TABLE v AS SELECT SUM(B) FROM R", "VIEW"},
		{"DROP VIEW", "view name"},
		{"DROP VIEW v extra", "trailing"},
		{"CREATE VIEW v AS SELECT SUM(B) FROM Z", "not in catalog"},
	}
	for _, c := range cases {
		_, err := ParseStatement(c.sql, cat())
		if err == nil {
			t.Errorf("%q: expected error", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not mention %q", c.sql, err, c.frag)
		}
	}
}
