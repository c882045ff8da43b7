package vorder

import (
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
)

// seedStats fills a collector with synthetic per-relation shapes:
// cards[name] tuples whose column i cycles through dist[name][i] values.
func seedStats(t *testing.T, q query.Query, cards map[string]int, dists map[string][]int) *data.Stats {
	t.Helper()
	st := data.NewStats()
	for _, rd := range q.Rels {
		rs := st.Rel(rd.Name, rd.Schema)
		n := cards[rd.Name]
		ds := dists[rd.Name]
		for i := 0; i < n; i++ {
			tup := make(data.Tuple, len(rd.Schema))
			for j := range tup {
				d := n
				if ds != nil && j < len(ds) {
					d = ds[j]
				}
				tup[j] = data.Int(int64(i % d))
			}
			rs.ObserveInsert(tup)
		}
	}
	return st
}

func triQuery() query.Query {
	return query.MustNew("triangle", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "A")},
	)
}

func TestCostModelViewSize(t *testing.T) {
	q := triQuery()
	st := seedStats(t, q, map[string]int{"R": 1000, "S": 1000, "T": 1000},
		map[string][]int{"R": {100, 200}, "S": {200, 50}, "T": {50, 100}})
	m := NewCostModel(q, st, nil)

	// Distinct counts come from the most selective relation per variable.
	if dA := m.Distinct("A"); dA < 70 || dA > 140 {
		t.Fatalf("Distinct(A) = %v, want ~100", dA)
	}
	if dC := m.Distinct("C"); dC < 35 || dC > 70 {
		t.Fatalf("Distinct(C) = %v, want ~50", dC)
	}

	// A view over [B,C] is capped by |S| which covers it.
	bc := m.ViewSize(data.NewSchema("B", "C"))
	if bc > 1100 {
		t.Fatalf("ViewSize(B,C) = %v not capped by |S|", bc)
	}
	// Bigger key schemas estimate at least as large as their subsets.
	if ab, a := m.ViewSize(data.NewSchema("A", "B")), m.ViewSize(data.NewSchema("A")); ab < a {
		t.Fatalf("ViewSize monotonicity: [A,B]=%v < [A]=%v", ab, a)
	}
}

func TestCostModelDeltaSize(t *testing.T) {
	q := triQuery()
	st := seedStats(t, q, map[string]int{"R": 1000, "S": 1000, "T": 1000}, nil)
	m := NewCostModel(q, st, nil)

	keys := data.NewSchema("A", "B")
	// An update binding every key variable has delta size 1 (the paper's
	// O(1) single-tuple maintenance).
	if d := m.DeltaSizeOver(keys, data.NewSchema("A", "B"), nil); d != 1 {
		t.Fatalf("fully-bound delta size = %v", d)
	}
	// Unbound key variables inflate the delta.
	if d := m.DeltaSizeOver(keys, data.NewSchema("B", "C"), nil); d <= 1 {
		t.Fatalf("unbound delta size = %v, want > 1", d)
	}
}

func TestCostModelRates(t *testing.T) {
	q := triQuery()
	st := seedStats(t, q, map[string]int{"R": 100, "S": 100, "T": 100}, nil)
	// Observed traffic goes all to R.
	st.Rel("R", data.NewSchema("A", "B")).DeltaTuples = 10000
	m := NewCostModel(q, st, nil)
	if m.Rate("R") < 0.8 {
		t.Fatalf("Rate(R) = %v with all observed traffic", m.Rate("R"))
	}
	// Non-updatable relations have rate 0.
	m2 := NewCostModel(q, st, []string{"S"})
	if m2.Rate("R") != 0 || m2.Rate("S") == 0 {
		t.Fatalf("updatable filter: R=%v S=%v", m2.Rate("R"), m2.Rate("S"))
	}
}

func TestCostPrefersNarrowOrder(t *testing.T) {
	// Q = R(A,B) ⋈ S(B,C): the order B(A,C) has width 1; A above B above C
	// forces C's view to carry [A] unnecessarily... cost must agree with the
	// structural ranking even without stats.
	q := query.MustNew("q", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
	)
	m := NewCostModel(q, nil, nil)

	good := MustNew(V("B", V("A"), V("C")))
	if err := good.Prepare(q); err != nil {
		t.Fatal(err)
	}
	bad := MustNew(V("A", V("B", V("C"))))
	if err := bad.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if gc, bc := m.Cost(good).Total(), m.Cost(bad).Total(); gc >= bc {
		t.Fatalf("cost(good)=%v >= cost(bad)=%v", gc, bc)
	}
}

func TestChooseMatchesHandpickedShapeOnPaperWorkloads(t *testing.T) {
	// Star join on one variable: the chosen order must root at the join
	// variable with one chain per relation (the Housing handpicked shape).
	q := query.MustNew("star", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("K", "a1", "a2")},
		query.RelDef{Name: "S", Schema: data.NewSchema("K", "b1")},
		query.RelDef{Name: "T", Schema: data.NewSchema("K", "c1", "c2")},
	)
	o, err := Choose(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Roots) != 1 || o.Roots[0].Var != "K" {
		t.Fatalf("star root = %v", o.String())
	}
	if len(o.Roots[0].Children) != 3 {
		t.Fatalf("star branches = %d: %s", len(o.Roots[0].Children), o.String())
	}
	if err := o.Validate(q); err != nil {
		t.Fatal(err)
	}
}

func TestChooseTriangleRanksRotationsByStats(t *testing.T) {
	q := triQuery()
	// C is by far the widest variable: the best rotation marginalizes C
	// deepest so the stored pairwise view is keyed by the two narrow
	// variables [A,B].
	st := seedStats(t, q, map[string]int{"R": 2000, "S": 2000, "T": 2000},
		map[string][]int{"R": {50, 60}, "S": {60, 1000}, "T": {1000, 50}})
	o, err := Choose(q, NewCostModel(q, st, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	// The deepest variable of a triangle order is the one marginalized at
	// the pairwise-join view.
	deepest := o.Roots[0]
	for len(deepest.Children) > 0 {
		deepest = deepest.Children[0]
	}
	if deepest.Var != "C" {
		t.Fatalf("chosen order %s does not marginalize the wide variable C deepest", o.String())
	}

	// And the chosen rotation must cost no more than the other two.
	m := NewCostModel(q, st, nil)
	chosenCost := m.Cost(o).Total()
	for _, alt := range []*Order{
		MustNew(V("A", V("B", V("C")))),
		MustNew(V("B", V("C", V("A")))),
		MustNew(V("C", V("A", V("B")))),
	} {
		if err := alt.Prepare(q); err != nil {
			t.Fatal(err)
		}
		if ac := m.Cost(alt).Total(); chosenCost > ac*1.0001 {
			t.Fatalf("chosen cost %v exceeds rotation %s cost %v", chosenCost, alt.String(), ac)
		}
	}
}

func TestChooseFreeVariablesStayAboveBound(t *testing.T) {
	q := query.MustNew("grp", data.NewSchema("A"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
	)
	o, err := Choose(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range o.Ancestors(o.nodes["A"]) {
		if !q.Free.Contains(a) {
			t.Fatalf("free variable A below bound %s in %s", a, o.String())
		}
	}
}

func TestChooseBudgetFallsBackToGreedy(t *testing.T) {
	q := triQuery()
	o, err := choose(q, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(q); err != nil {
		t.Fatalf("fallback order invalid: %v", err)
	}
}

func TestChooseNeverWorseThanGreedy(t *testing.T) {
	queries := []query.Query{
		triQuery(),
		query.MustNew("snow", nil,
			query.RelDef{Name: "F", Schema: data.NewSchema("l", "d", "k", "u")},
			query.RelDef{Name: "I", Schema: data.NewSchema("k", "s", "c")},
			query.RelDef{Name: "W", Schema: data.NewSchema("l", "d", "r")},
			query.RelDef{Name: "L", Schema: data.NewSchema("l", "z", "x")},
			query.RelDef{Name: "C", Schema: data.NewSchema("z", "p")},
		),
	}
	for _, q := range queries {
		cards := map[string]int{}
		for i, rd := range q.Rels {
			cards[rd.Name] = 100 * (i + 1)
		}
		st := seedStats(t, q, cards, nil)
		m := NewCostModel(q, st, nil)
		chosen, err := Choose(q, m)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		greedy, err := Build(q)
		if err != nil {
			t.Fatal(err)
		}
		cc, gc := m.Cost(chosen).Total(), m.Cost(greedy).Total()
		if cc > gc*1.0001 {
			t.Fatalf("%s: chosen %v worse than greedy %v", q.Name, cc, gc)
		}
		if w := chosen.Width(q); w > greedy.Width(q)+1 {
			t.Fatalf("%s: chosen width %d far above greedy %d", q.Name, w, greedy.Width(q))
		}
	}
}
