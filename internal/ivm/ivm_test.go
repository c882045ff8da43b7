package ivm

import (
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// --- fixtures ---------------------------------------------------------------

func paperQuery(free ...string) query.Query {
	return query.MustNew("Q", data.Schema(free),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C", "E")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")},
	)
}

func paperOrder() *vorder.Order {
	return vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C", vorder.V("D"), vorder.V("E"))))
}

func countLift(string, data.Value) int64 { return 1 }
func valueLift(_ string, v data.Value) int64 {
	return v.AsInt()
}

// randomDelta builds a random delta over a schema with values in [0,dom)
// and payloads in [-2,2] \ {0}.
func randomDelta(rng *rand.Rand, schema data.Schema, dom, n int) *data.Relation[int64] {
	d := data.NewRelation[int64](ring.Int{}, schema)
	for i := 0; i < n; i++ {
		t := make(data.Tuple, len(schema))
		for j := range t {
			t[j] = data.Int(int64(rng.Intn(dom)))
		}
		p := int64(rng.Intn(4) - 2)
		if p == 0 {
			p = 1
		}
		d.Merge(t, p)
	}
	return d
}

func eqInt(a, b int64) bool { return a == b }

// --- Example 4.1: hand-checked delta propagation ------------------------------

// TestExample41 reproduces paper Example 4.1: the COUNT query over Figure
// 2c's database with δT = {(c1,d1) -> -1, (c2,d2) -> 3}.
func TestExample41(t *testing.T) {
	q := paperQuery()
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}

	// Figure 2c database with all payloads 1.
	load := func(name string, schema data.Schema, rows ...data.Tuple) {
		rel := data.NewRelation[int64](ring.Int{}, schema)
		for _, r := range rows {
			rel.Merge(r, 1)
		}
		if err := e.Load(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	load("R", data.NewSchema("A", "B"), data.Ints(1, 1), data.Ints(1, 2), data.Ints(2, 3), data.Ints(3, 4))
	load("S", data.NewSchema("A", "C", "E"),
		data.Ints(1, 1, 1), data.Ints(1, 1, 2), data.Ints(1, 2, 3), data.Ints(2, 2, 4))
	load("T", data.NewSchema("C", "D"),
		data.Ints(1, 1), data.Ints(2, 2), data.Ints(2, 3), data.Ints(3, 4))
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}

	// The compiled plan for T is the delta tree of Figure 4: δT flows
	// bottom-up through δV@D and δV@C to δV@A, joining the stored V@E at C
	// and V@B at A, and each step marginalizes its own variable.
	var plan *deltaPlan[int64]
	for leaf, p := range e.plans {
		if leaf.Rel == "T" {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no delta plan for T")
	}
	want := []struct{ node, sibling, marg string }{{"D", "", "D"}, {"C", "V@E[A,C]", "C"}, {"A", "V@B[A]", "A"}}
	if len(plan.steps) != len(want) {
		t.Fatalf("the plan for T has %d steps, want %d:\n%s", len(plan.steps), len(want), e.Describe())
	}
	for i, st := range plan.steps {
		var sibs, margs []string
		for _, sib := range st.siblings {
			sibs = append(sibs, sib.name)
		}
		for _, mv := range st.margVars {
			margs = append(margs, mv.name)
		}
		if w := want[i]; st.node.Var != w.node || strings.Join(sibs, ",") != w.sibling || strings.Join(margs, ",") != w.marg {
			t.Errorf("step %d at %s joins %v and marginalizes %v, want the step at %s to join [%s] and marginalize [%s]:\n%s",
				i, st.node.Var, sibs, margs, w.node, w.sibling, w.marg, e.Describe())
		}
	}

	// Figure 2d: the COUNT over D is 10.
	if p, _ := e.Result().Get(data.Tuple{}); p != 10 {
		t.Fatalf("initial count = %d, want 10", p)
	}

	// δT from Example 4.1: the root delta is +5.
	dt := data.NewRelation[int64](ring.Int{}, data.NewSchema("C", "D"))
	dt.Merge(data.Ints(1, 1), -1)
	dt.Merge(data.Ints(2, 2), 3)
	if err := e.ApplyDelta("T", dt); err != nil {
		t.Fatal(err)
	}
	if p, _ := e.Result().Get(data.Tuple{}); p != 15 {
		t.Fatalf("count after δT = %d, want 15", p)
	}
}

// --- differential tests: all strategies agree --------------------------------

type strategyFactory struct {
	name string
	make func(q query.Query, o func() *vorder.Order, lift data.LiftFunc[int64], upd []string) (strategy[int64], error)
}

func intStrategies() []strategyFactory {
	return []strategyFactory{
		{"F-IVM", func(q query.Query, o func() *vorder.Order, lift data.LiftFunc[int64], upd []string) (strategy[int64], error) {
			return New[int64](q, o(), ring.Int{}, lift, Options[int64]{Updatable: upd})
		}},
		{"F-IVM-composed", func(q query.Query, o func() *vorder.Order, lift data.LiftFunc[int64], upd []string) (strategy[int64], error) {
			return New[int64](q, o(), ring.Int{}, lift, Options[int64]{Updatable: upd, ComposeChains: true})
		}},
		{"1-IVM", func(q query.Query, o func() *vorder.Order, lift data.LiftFunc[int64], upd []string) (strategy[int64], error) {
			return NewFirstOrder[int64](q, o(), ring.Int{}, lift)
		}},
		{"DBT", func(q query.Query, o func() *vorder.Order, lift data.LiftFunc[int64], upd []string) (strategy[int64], error) {
			return NewRecursive[int64](q, ring.Int{}, lift, upd)
		}},
		{"RE-EVAL", func(q query.Query, o func() *vorder.Order, lift data.LiftFunc[int64], upd []string) (strategy[int64], error) {
			return NewReEval[int64](q, o(), ring.Int{}, lift)
		}},
	}
}

// runDifferential drives all strategies through the same random stream and
// checks they agree with re-evaluation after every update.
func runDifferential(t *testing.T, q query.Query, mkOrder func() *vorder.Order, lift data.LiftFunc[int64], upd []string, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	var ms []strategy[int64]
	var names []string
	for _, f := range intStrategies() {
		m, err := f.make(q, mkOrder, lift, upd)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		ms = append(ms, m)
		names = append(names, f.name)
	}
	// Initial load: random contents per relation.
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 4, rng.Intn(8))
		for _, m := range ms {
			if err := m.Load(rd.Name, base.Clone()); err != nil {
				t.Fatalf("load: %v", err)
			}
		}
	}
	for i, m := range ms {
		if err := m.Init(); err != nil {
			t.Fatalf("%s init: %v", names[i], err)
		}
	}

	updSet := upd
	if len(updSet) == 0 {
		updSet = q.RelNames()
	}
	ref := ms[len(ms)-1] // RE-EVAL is ground truth
	for step := 0; step < steps; step++ {
		rel := updSet[rng.Intn(len(updSet))]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 4, 1+rng.Intn(3))
		for i, m := range ms {
			if err := m.ApplyDelta(rel, delta.Clone()); err != nil {
				t.Fatalf("step %d %s: %v", step, names[i], err)
			}
		}
		want := ref.Result()
		for i, m := range ms[:len(ms)-1] {
			if !m.Result().Equal(want, eqInt) {
				t.Fatalf("step %d (%s to %s): result diverged\n got %v\nwant %v",
					step, names[i], rel, m.Result(), want)
			}
		}
	}
}

func TestDifferentialCountPaperQuery(t *testing.T) {
	runDifferential(t, paperQuery(), paperOrder, countLift, nil, 1, 40)
}

func TestDifferentialSumPaperQuery(t *testing.T) {
	// SUM(B*D*E) with free variables A, C: Example 1.1 / Example 2.3.
	q := paperQuery("A", "C")
	lift := func(v string, x data.Value) int64 {
		switch v {
		case "B", "D", "E":
			return x.AsInt()
		default:
			return 1
		}
	}
	runDifferential(t, q, paperOrder, lift, nil, 2, 40)
}

func TestDifferentialUpdatableSubset(t *testing.T) {
	// Updates to T only (Example 4.2's materialization scenario).
	runDifferential(t, paperQuery(), paperOrder, countLift, []string{"T"}, 3, 30)
}

func TestDifferentialFreeVariables(t *testing.T) {
	// Group-by on A only.
	q := paperQuery("A")
	o := func() *vorder.Order {
		return vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C", vorder.V("D"), vorder.V("E"))))
	}
	runDifferential(t, q, o, valueLift, nil, 4, 40)
}

func TestDifferentialStarQuery(t *testing.T) {
	// Housing-shaped star join: all relations join on P.
	q := query.MustNew("star", nil,
		query.RelDef{Name: "R1", Schema: data.NewSchema("P", "X")},
		query.RelDef{Name: "R2", Schema: data.NewSchema("P", "Y")},
		query.RelDef{Name: "R3", Schema: data.NewSchema("P", "Z")},
	)
	o := func() *vorder.Order {
		return vorder.MustNew(vorder.V("P", vorder.V("X"), vorder.V("Y"), vorder.V("Z")))
	}
	runDifferential(t, q, o, countLift, nil, 5, 40)
}

func TestDifferentialChainQuery(t *testing.T) {
	// Matrix-chain-shaped join: A1(X1,X2) ⋈ A2(X2,X3) ⋈ A3(X3,X4),
	// group-by X1, X4.
	q := query.MustNew("chain", data.NewSchema("X1", "X4"),
		query.RelDef{Name: "A1", Schema: data.NewSchema("X1", "X2")},
		query.RelDef{Name: "A2", Schema: data.NewSchema("X2", "X3")},
		query.RelDef{Name: "A3", Schema: data.NewSchema("X3", "X4")},
	)
	o := func() *vorder.Order {
		return vorder.MustNew(vorder.V("X1", vorder.V("X4", vorder.V("X3", vorder.V("X2")))))
	}
	runDifferential(t, q, o, countLift, nil, 6, 40)
}

func TestDifferentialWideRelationComposed(t *testing.T) {
	// A wide relation joined with a thin one; exercises chain composition.
	q := query.MustNew("wide", nil,
		query.RelDef{Name: "W", Schema: data.NewSchema("A", "B", "C", "D")},
		query.RelDef{Name: "K", Schema: data.NewSchema("A", "F")},
	)
	o := func() *vorder.Order {
		return vorder.MustNew(vorder.V("A", vorder.V("F"), vorder.V("B", vorder.V("C", vorder.V("D")))))
	}
	runDifferential(t, q, o, valueLift, nil, 7, 30)
}

// --- triangle query with and without indicators -------------------------------

func triangleQuery() query.Query {
	return query.MustNew("tri", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "A")},
	)
}

func triangleOrder() *vorder.Order {
	return vorder.MustNew(vorder.V("A", vorder.V("B", vorder.V("C"))))
}

func TestDifferentialTriangle(t *testing.T) {
	runDifferential(t, triangleQuery(), triangleOrder, countLift, nil, 8, 40)
}

// TestTriangleIndicators drives the engine with indicator projections
// (Appendix B) against plain re-evaluation.
func TestTriangleIndicators(t *testing.T) {
	q := triangleQuery()
	rng := rand.New(rand.NewSource(9))

	e, err := New[int64](q, triangleOrder(), ring.Int{}, countLift, Options[int64]{Indicators: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReEval[int64](q, triangleOrder(), ring.Int{}, countLift)
	if err != nil {
		t.Fatal(err)
	}

	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 4, 6)
		if err := e.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	if !e.Result().Equal(ref.Result(), eqInt) {
		t.Fatalf("initial results differ: %v vs %v", e.Result(), ref.Result())
	}

	names := q.RelNames()
	for step := 0; step < 60; step++ {
		rel := names[rng.Intn(len(names))]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 4, 1+rng.Intn(2))
		if err := e.ApplyDelta(rel, delta.Clone()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := ref.ApplyDelta(rel, delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if !e.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d (%s): %v vs %v", step, rel, e.Result(), ref.Result())
		}
	}
}

// TestTriangleIndicatorShrinksView checks the space claim of Example B.3:
// with the indicator projection, the view at C only holds (A,B) pairs that
// appear in R.
func TestTriangleIndicatorShrinksView(t *testing.T) {
	q := triangleQuery()
	n := 12

	build := func(ind bool) *Engine[int64] {
		e, err := New[int64](q, triangleOrder(), ring.Int{}, countLift, Options[int64]{Indicators: ind})
		if err != nil {
			t.Fatal(err)
		}
		// R is a sparse matching {(i,i)}, S and T are dense-ish bipartite
		// edge sets, so S ⋈ T at node C has ~n² (A,B) pairs but only n of
		// them survive the indicator.
		r := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
		for i := 0; i < n; i++ {
			r.Merge(data.Ints(int64(i), int64(i)), 1)
		}
		s := data.NewRelation[int64](ring.Int{}, data.NewSchema("B", "C"))
		tt := data.NewRelation[int64](ring.Int{}, data.NewSchema("C", "A"))
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				s.Merge(data.Ints(int64(i), int64((i+j)%n)), 1)
				tt.Merge(data.Ints(int64(i), int64((i+2*j)%n)), 1)
			}
		}
		e.Load("R", r)
		e.Load("S", s)
		e.Load("T", tt)
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		return e
	}

	withInd := build(true)
	withoutInd := build(false)
	if c1, c2 := countResult(withInd), countResult(withoutInd); c1 != c2 {
		t.Fatalf("results differ: %d vs %d", c1, c2)
	}

	vcWith := viewSizeAt(withInd, "C")
	vcWithout := viewSizeAt(withoutInd, "C")
	if vcWith >= vcWithout {
		t.Errorf("indicator did not shrink V@C: %d vs %d", vcWith, vcWithout)
	}
}

func countResult(e *Engine[int64]) int64 {
	p, _ := e.Result().Get(data.Tuple{})
	return p
}

func viewSizeAt(e *Engine[int64], varName string) int {
	size := -1
	e.Tree().Walk(func(n *viewtree.Node) {
		if n.Var == varName {
			if v := e.ViewOf(n); v != nil {
				size = v.Len()
			}
		}
	})
	return size
}

// --- factored deltas ----------------------------------------------------------

// TestFactoredDeltaMatrixChain checks Section 5 / Example 6.1: rank-1
// factored updates produce the same result as their expansion.
func TestFactoredDeltaMatrixChain(t *testing.T) {
	q := query.MustNew("chain", data.NewSchema("X1", "X4"),
		query.RelDef{Name: "A1", Schema: data.NewSchema("X1", "X2")},
		query.RelDef{Name: "A2", Schema: data.NewSchema("X2", "X3")},
		query.RelDef{Name: "A3", Schema: data.NewSchema("X3", "X4")},
	)
	mkOrder := func() *vorder.Order {
		return vorder.MustNew(vorder.V("X1", vorder.V("X4", vorder.V("X3", vorder.V("X2")))))
	}
	rng := rand.New(rand.NewSource(10))
	lift := countLift

	e, err := New[int64](q, mkOrder(), ring.Int{}, lift, Options[int64]{Updatable: []string{"A2"}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReEval[int64](q, mkOrder(), ring.Int{}, lift)
	if err != nil {
		t.Fatal(err)
	}
	n := 5
	for _, name := range []string{"A1", "A2", "A3"} {
		rd, _ := q.Rel(name)
		m := data.NewRelation[int64](ring.Int{}, rd.Schema)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Merge(data.Ints(int64(i), int64(j)), int64(rng.Intn(5)-2))
			}
		}
		e.Load(name, m.Clone())
		ref.Load(name, m.Clone())
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 20; step++ {
		// Rank-1 update: u over X2 times v over X3.
		u := data.NewRelation[int64](ring.Int{}, data.NewSchema("X2"))
		u.Merge(data.Ints(int64(rng.Intn(n))), int64(1+rng.Intn(3)))
		v := data.NewRelation[int64](ring.Int{}, data.NewSchema("X3"))
		for j := 0; j < n; j++ {
			v.Merge(data.Ints(int64(j)), int64(rng.Intn(5)-2))
		}
		fd := FactoredDelta[int64]{Factors: []*data.Relation[int64]{u, v}}
		if err := e.ApplyFactoredDelta("A2", fd); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := ref.ApplyDelta("A2", fd.Expand(data.NewSchema("X2", "X3"))); err != nil {
			t.Fatal(err)
		}
		if !e.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d: factored delta diverged", step)
		}
	}
}

func TestFactoredDeltaValidation(t *testing.T) {
	u := data.NewRelation[int64](ring.Int{}, data.NewSchema("X"))
	v := data.NewRelation[int64](ring.Int{}, data.NewSchema("X"))
	fd := FactoredDelta[int64]{Factors: []*data.Relation[int64]{u, v}}
	if err := fd.Validate(data.NewSchema("X", "Y")); err == nil {
		t.Error("overlapping factors should be rejected")
	}
	w := data.NewRelation[int64](ring.Int{}, data.NewSchema("Y"))
	fd = FactoredDelta[int64]{Factors: []*data.Relation[int64]{u, w}}
	if err := fd.Validate(data.NewSchema("X", "Y", "Z")); err == nil {
		t.Error("incomplete cover should be rejected")
	}
	if err := fd.Validate(data.NewSchema("X", "Y")); err != nil {
		t.Errorf("valid decomposition rejected: %v", err)
	}
}

// --- engine bookkeeping --------------------------------------------------------

func TestEngineViewCounts(t *testing.T) {
	q := paperQuery()
	// Updates to T only: root + V@B + V@E (+ S leaf not needed since V@E
	// covers it) — Example 4.2 stores 3 views.
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{Updatable: []string{"T"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ViewCount(); got != 3 {
		t.Errorf("ViewCount(U={T}) = %d, want 3", got)
	}
	// All relations updatable: 5 inner views.
	e2, _ := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if got := e2.ViewCount(); got != 5 {
		t.Errorf("ViewCount(U=all) = %d, want 5", got)
	}
}

func TestEngineErrors(t *testing.T) {
	q := paperQuery()
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{Updatable: []string{"T"}})
	if err != nil {
		t.Fatal(err)
	}
	d := data.NewRelation[int64](ring.Int{}, data.NewSchema("C", "D"))
	if err := e.ApplyDelta("T", d); err == nil {
		t.Error("ApplyDelta before Init should fail")
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyDelta("R", randomDelta(rand.New(rand.NewSource(1)), data.NewSchema("A", "B"), 3, 1)); err == nil {
		t.Error("update to non-updatable relation should fail")
	}
	bad := data.NewRelation[int64](ring.Int{}, data.NewSchema("C", "Z"))
	if err := e.ApplyDelta("T", bad); err == nil {
		t.Error("schema mismatch should fail")
	}
	if _, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{Updatable: []string{"Nope"}}); err == nil {
		t.Error("unknown updatable relation should fail")
	}
}

func TestRecursiveViewCountsStar(t *testing.T) {
	// Housing-shaped star: the recursive hierarchy has root + one singleton
	// view per relation (each aggregated per join key).
	q := query.MustNew("star", nil,
		query.RelDef{Name: "R1", Schema: data.NewSchema("P", "X")},
		query.RelDef{Name: "R2", Schema: data.NewSchema("P", "Y")},
		query.RelDef{Name: "R3", Schema: data.NewSchema("P", "Z")},
	)
	m, err := NewRecursive[int64](q, ring.Int{}, countLift, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ViewCount(); got != 4 {
		t.Errorf("ViewCount = %d, want 4 (root + 3 singletons)", got)
	}
}

func TestRecursiveViewCountExceedsFIVM(t *testing.T) {
	// On the snowflake-shaped paper query, DBT materializes more views than
	// F-IVM needs — the core space gap the paper reports.
	q := paperQuery()
	fivm, _ := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	dbt, _ := NewRecursive[int64](q, ring.Int{}, countLift, nil)
	if dbt.ViewCount() <= fivm.ViewCount() {
		t.Errorf("DBT views (%d) should exceed F-IVM views (%d)", dbt.ViewCount(), fivm.ViewCount())
	}
}
