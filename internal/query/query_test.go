package query

import (
	"testing"

	"fivm/internal/data"
)

func testQuery(t *testing.T) Query {
	t.Helper()
	q, err := New("Q", data.NewSchema("A", "C"),
		RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		RelDef{Name: "S", Schema: data.NewSchema("A", "C", "E")},
		RelDef{Name: "T", Schema: data.NewSchema("C", "D")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestVarsAndBound(t *testing.T) {
	q := testQuery(t)
	if !q.Vars().SameSet(data.NewSchema("A", "B", "C", "D", "E")) {
		t.Errorf("Vars = %v", q.Vars())
	}
	if bound := q.Vars().Minus(q.Free); !bound.SameSet(data.NewSchema("B", "D", "E")) {
		t.Errorf("bound = %v", bound)
	}
}

func TestRelLookups(t *testing.T) {
	q := testQuery(t)
	if rd, ok := q.Rel("S"); !ok || len(rd.Schema) != 3 {
		t.Errorf("Rel(S) = %v,%v", rd, ok)
	}
	if _, ok := q.Rel("Z"); ok {
		t.Error("Rel(Z) should not exist")
	}
	if got := q.RelNames(); len(got) != 3 || got[0] != "R" {
		t.Errorf("RelNames = %v", got)
	}
	if got := q.RelsWith("C"); len(got) != 2 {
		t.Errorf("RelsWith(C) = %v", got)
	}
	if !q.Free.Contains("A") || q.Free.Contains("B") {
		t.Errorf("Free = %v", q.Free)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("dup", nil,
		RelDef{Name: "R", Schema: data.NewSchema("A")},
		RelDef{Name: "R", Schema: data.NewSchema("B")},
	); err == nil {
		t.Error("duplicate relation should be rejected")
	}
	if _, err := New("badfree", data.NewSchema("Z"),
		RelDef{Name: "R", Schema: data.NewSchema("A")},
	); err == nil {
		t.Error("free variable outside the query should be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid query")
		}
	}()
	MustNew("bad", data.NewSchema("Z"), RelDef{Name: "R", Schema: data.NewSchema("A")})
}
