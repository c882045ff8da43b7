package vorder

import (
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
)

// paperQuery is the running example: R(A,B) ⋈ S(A,C,E) ⋈ T(C,D).
func paperQuery(free ...string) query.Query {
	return query.MustNew("Q", data.Schema(free),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C", "E")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")},
	)
}

// paperOrder is the variable order of Figure 2a: A(B, C(D, E)).
func paperOrder() *Order {
	return MustNew(V("A", V("B"), V("C", V("D"), V("E"))))
}

func TestPaperOrderDeps(t *testing.T) {
	q := paperQuery()
	o := paperOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	// Figure 2a: dep(A)=∅, dep(B)={A}, dep(C)={A}, dep(D)={C}, dep(E)={A,C}.
	want := map[string][]string{
		"A": nil,
		"B": {"A"},
		"C": {"A"},
		"D": {"C"},
		"E": {"A", "C"},
	}
	for v, deps := range want {
		n := o.nodes[v]
		if n == nil {
			t.Fatalf("missing node %q", v)
		}
		if !n.Dep.SameSet(data.Schema(deps)) {
			t.Errorf("dep(%s) = %v, want %v", v, n.Dep, deps)
		}
	}
}

func TestPaperOrderAnchors(t *testing.T) {
	q := paperQuery()
	o := paperOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	// R's deepest variable is B, T's is D, S's is E.
	for v, rel := range map[string]string{"B": "R", "D": "T", "E": "S"} {
		n := o.nodes[v]
		if len(n.Rels) != 1 || n.Rels[0] != rel {
			t.Errorf("rels(%s) = %v, want [%s]", v, n.Rels, rel)
		}
	}
	if len(o.nodes["A"].Rels) != 0 || len(o.nodes["C"].Rels) != 0 {
		t.Error("inner nodes should anchor no relations")
	}
}

func TestValidateRejectsSplitRelation(t *testing.T) {
	q := paperQuery()
	// B and A on different branches: R(A,B) violates the path constraint.
	o := MustNew(V("C", V("A", V("E")), V("B"), V("D")))
	if err := o.Validate(q); err == nil {
		t.Error("expected path-constraint violation")
	} else if !strings.Contains(err.Error(), "R") {
		t.Errorf("error should name relation R: %v", err)
	}
}

func TestValidateRejectsMissingVariable(t *testing.T) {
	q := paperQuery()
	o := MustNew(V("A", V("B"), V("C", V("D"))))
	if err := o.Validate(q); err == nil {
		t.Error("expected missing-variable error")
	}
}

func TestValidateRejectsExtraVariable(t *testing.T) {
	q := paperQuery()
	o := MustNew(V("A", V("B"), V("C", V("D"), V("E"), V("Z"))))
	if err := o.Validate(q); err == nil {
		t.Error("expected extra-variable error")
	}
}

func TestChainOrderIsAlwaysValid(t *testing.T) {
	q := paperQuery()
	o := MustNew(Chain("A", "C", "B", "D", "E"))
	if err := o.Prepare(q); err != nil {
		t.Fatalf("chain order should be valid: %v", err)
	}
}

func TestDuplicateVariableRejected(t *testing.T) {
	if _, err := New(V("A", V("B"), V("B"))); err == nil {
		t.Error("expected duplicate-variable error")
	}
}

func TestBuildPaperQuery(t *testing.T) {
	q := paperQuery()
	o, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(q); err != nil {
		t.Errorf("Build produced invalid order: %v", err)
	}
	// A and C occur in two relations each; they should sit above B, D, E.
	for _, v := range []string{"B", "D", "E"} {
		n := o.nodes[v]
		anc := o.Ancestors(n)
		if len(anc) == 0 {
			t.Errorf("%s should not be a root", v)
		}
	}
}

func TestBuildPutsFreeVariablesOnTop(t *testing.T) {
	q := paperQuery("E", "D")
	o, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	// Free variables must not have bound ancestors.
	for _, v := range []string{"E", "D"} {
		for _, a := range o.Ancestors(o.nodes[v]) {
			if !q.Free.Contains(a) {
				t.Errorf("free variable %s below bound variable %s", v, a)
			}
		}
	}
}

func TestBuildTriangleQuery(t *testing.T) {
	q := query.MustNew("tri", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "A")},
	)
	o, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(q); err != nil {
		t.Errorf("triangle order invalid: %v", err)
	}
}

func TestBuildStarQuery(t *testing.T) {
	q := query.MustNew("star", nil,
		query.RelDef{Name: "R1", Schema: data.NewSchema("P", "X1")},
		query.RelDef{Name: "R2", Schema: data.NewSchema("P", "X2")},
		query.RelDef{Name: "R3", Schema: data.NewSchema("P", "X3")},
	)
	o, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	// P occurs in all three relations: it must be the root.
	if len(o.Roots) != 1 || o.Roots[0].Var != "P" {
		t.Errorf("root = %v, want P", o.Roots[0].Var)
	}
	// Each Xi hangs below P independently.
	if got := len(o.Roots[0].Children); got != 3 {
		t.Errorf("children = %d, want 3", got)
	}
}

func TestOrderString(t *testing.T) {
	q := paperQuery()
	o := paperOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	s := o.String()
	for _, frag := range []string{"A(", "B{R}", "D{T}", "E{S}"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}

// --- GYO -------------------------------------------------------------------

func TestGYOAcyclicPath(t *testing.T) {
	edges := []Hyperedge{
		{Name: "R", Vars: data.NewSchema("A", "B")},
		{Name: "S", Vars: data.NewSchema("B", "C")},
		{Name: "T", Vars: data.NewSchema("C", "D")},
	}
	if len(GYO(edges)) != 0 {
		t.Error("path join should be acyclic")
	}
}

func TestGYOTriangleIsCyclic(t *testing.T) {
	edges := []Hyperedge{
		{Name: "R", Vars: data.NewSchema("A", "B")},
		{Name: "S", Vars: data.NewSchema("B", "C")},
		{Name: "T", Vars: data.NewSchema("C", "A")},
	}
	core := GYO(edges)
	if len(core) != 3 {
		t.Errorf("triangle core = %d edges, want 3", len(core))
	}
}

func TestGYOSnowflakeIsAcyclic(t *testing.T) {
	edges := []Hyperedge{
		{Name: "Inv", Vars: data.NewSchema("locn", "dateid", "ksn")},
		{Name: "Item", Vars: data.NewSchema("ksn")},
		{Name: "Weather", Vars: data.NewSchema("locn", "dateid")},
		{Name: "Loc", Vars: data.NewSchema("locn", "zip")},
		{Name: "Census", Vars: data.NewSchema("zip")},
	}
	if len(GYO(edges)) != 0 {
		t.Error("snowflake should be acyclic")
	}
}

func TestGYOLoop4WithChord(t *testing.T) {
	// Loop of 4 with a chord: the chord closes two triangles; the core is
	// non-empty.
	edges := []Hyperedge{
		{Name: "R1", Vars: data.NewSchema("A", "B")},
		{Name: "R2", Vars: data.NewSchema("B", "C")},
		{Name: "R3", Vars: data.NewSchema("C", "D")},
		{Name: "R4", Vars: data.NewSchema("D", "A")},
		{Name: "Chord", Vars: data.NewSchema("A", "C")},
	}
	core := GYO(edges)
	if len(core) == 0 {
		t.Error("loop-4 with chord should have a cyclic core")
	}
}

func TestGYOContainedEdgeRemoved(t *testing.T) {
	edges := []Hyperedge{
		{Name: "Big", Vars: data.NewSchema("A", "B", "C")},
		{Name: "Small", Vars: data.NewSchema("A", "B")},
	}
	if len(GYO(edges)) != 0 {
		t.Error("contained edges reduce away")
	}
}

func TestGYODoesNotMutateInput(t *testing.T) {
	edges := []Hyperedge{
		{Name: "R", Vars: data.NewSchema("A", "B")},
		{Name: "S", Vars: data.NewSchema("B", "C")},
	}
	GYO(edges)
	if len(edges[0].Vars) != 2 || len(edges[1].Vars) != 2 {
		t.Error("GYO mutated its input")
	}
}

func TestWidth(t *testing.T) {
	q := paperQuery()
	// The bushy paper order has width 2 (dep(E) = {A,C}).
	bushy := paperOrder()
	if err := bushy.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if got := bushy.Width(q); got != 2 {
		t.Errorf("bushy width = %d, want 2", got)
	}
	// A chain order has at least that width; often more.
	chain := MustNew(Chain("B", "A", "E", "D", "C"))
	if err := chain.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if chain.Width(q) < bushy.Width(q) {
		t.Errorf("chain width %d below bushy %d", chain.Width(q), bushy.Width(q))
	}
}

func TestWidthCountsFreeVariables(t *testing.T) {
	q := paperQuery("A", "C")
	o := paperOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	// E keeps dep {A,C} and is bound; C is free with dep {A}: width 2.
	if got := o.Width(q); got != 2 {
		t.Errorf("width = %d, want 2", got)
	}
}
