package ivm

import (
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// TestLoop4WithChordIndicators covers the Appendix B discussion of the
// loop-4 query with a chord: the chord relation closes two triangles, and
// indicator projections must keep maintenance correct.
func TestLoop4WithChordIndicators(t *testing.T) {
	q := query.MustNew("loop4", nil,
		query.RelDef{Name: "R1", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "R2", Schema: data.NewSchema("B", "C")},
		query.RelDef{Name: "R3", Schema: data.NewSchema("C", "D")},
		query.RelDef{Name: "R4", Schema: data.NewSchema("D", "A")},
		query.RelDef{Name: "Chord", Schema: data.NewSchema("A", "C")},
	)
	mkOrder := func() *vorder.Order {
		o, err := vorder.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	rng := rand.New(rand.NewSource(31))

	e, err := New[int64](q, mkOrder(), ring.Int{}, countLift, Options[int64]{Indicators: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReEval[int64](q, mkOrder(), ring.Int{}, countLift)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 4, 8)
		e.Load(rd.Name, base.Clone())
		ref.Load(rd.Name, base.Clone())
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		rel := q.Rels[rng.Intn(len(q.Rels))]
		delta := randomDelta(rng, rel.Schema, 4, 1+rng.Intn(2))
		if err := e.ApplyDelta(rel.Name, delta.Clone()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := ref.ApplyDelta(rel.Name, delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if !e.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d (%s): %v vs %v", step, rel.Name, e.Result(), ref.Result())
		}
	}
}

// TestSelfJoinViaAliases documents the paper's treatment of repeated
// relations: a self-join is expressed with one alias per occurrence, and an
// update to the underlying relation is applied to each alias in sequence.
// Here: counting length-2 paths E(A,B) ⋈ E(B,C) in a digraph.
func TestSelfJoinViaAliases(t *testing.T) {
	q := query.MustNew("paths2", nil,
		query.RelDef{Name: "E1", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "E2", Schema: data.NewSchema("B", "C")},
	)
	o := vorder.MustNew(vorder.V("B", vorder.V("A"), vorder.V("C")))
	e, err := New[int64](q, o, ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(32))
	type edge [2]int64
	edges := map[edge]int64{}
	count2Paths := func() int64 {
		var n int64
		for e1, m1 := range edges {
			for e2, m2 := range edges {
				if e1[1] == e2[0] {
					n += m1 * m2
				}
			}
		}
		return n
	}
	for step := 0; step < 40; step++ {
		a, b := int64(rng.Intn(5)), int64(rng.Intn(5))
		m := int64(1)
		if edges[edge{a, b}] > 0 && rng.Intn(3) == 0 {
			m = -1
		}
		edges[edge{a, b}] += m
		if edges[edge{a, b}] == 0 {
			delete(edges, edge{a, b})
		}

		// Apply the same physical update to both aliases, in sequence.
		d1 := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
		d1.Merge(data.Ints(a, b), m)
		d2 := data.NewRelation[int64](ring.Int{}, data.NewSchema("B", "C"))
		d2.Merge(data.Ints(a, b), m)
		if err := e.ApplyDelta("E1", d1); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyDelta("E2", d2); err != nil {
			t.Fatal(err)
		}

		got, _ := e.Result().Get(data.Tuple{})
		if want := count2Paths(); got != want {
			t.Fatalf("step %d: 2-path count %d, want %d", step, got, want)
		}
	}
}

// TestDescribe checks the maintenance-schema rendering.
func TestDescribe(t *testing.T) {
	q := paperQuery()
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{Updatable: []string{"T"}})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Describe()
	for _, frag := range []string{"view tree:", "*V@A[]", "delta plan for T:", "⊕[D]", "materialized"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Describe missing %q:\n%s", frag, s)
		}
	}
	// For updates to T, the plan must probe the S-view and the R-view.
	if !strings.Contains(s, "V@E[A,C]") || !strings.Contains(s, "V@B[A]") {
		t.Errorf("Describe should mention sibling views:\n%s", s)
	}
}

// TestRecursiveRestrictedUpdatable checks the DBT baseline with a
// restricted updatable set builds a smaller hierarchy and stays correct.
func TestRecursiveRestrictedUpdatable(t *testing.T) {
	q := paperQuery()
	full, _ := NewRecursive[int64](q, ring.Int{}, countLift, nil)
	one, _ := NewRecursive[int64](q, ring.Int{}, countLift, []string{"T"})
	if one.ViewCount() >= full.ViewCount() {
		t.Errorf("restricted hierarchy (%d views) should be smaller than full (%d)", one.ViewCount(), full.ViewCount())
	}

	rng := rand.New(rand.NewSource(33))
	ref, _ := NewReEval[int64](q, paperOrder(), ring.Int{}, countLift)
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 4, 8)
		one.Load(rd.Name, base.Clone())
		ref.Load(rd.Name, base.Clone())
	}
	if err := one.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		delta := randomDelta(rng, data.NewSchema("C", "D"), 4, 1+rng.Intn(3))
		if err := one.ApplyDelta("T", delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyDelta("T", delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if !one.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d diverged", step)
		}
	}
	// Updates outside the updatable set are rejected.
	if err := one.ApplyDelta("R", randomDelta(rng, data.NewSchema("A", "B"), 3, 1)); err == nil {
		t.Error("update to non-updatable relation should fail")
	}
}

// TestFactoredDeltaDisconnectedQuery covers the Cartesian-product case: a
// sibling sharing no variables with any delta factor becomes a factor of
// its own (the clone path in joinSiblingFactored).
func TestFactoredDeltaDisconnectedQuery(t *testing.T) {
	q := query.MustNew("cart", data.NewSchema("A", "B"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B")},
	)
	o, err := vorder.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New[int64](q, o, ring.Int{}, countLift, Options[int64]{Updatable: []string{"R"}})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := vorder.Build(q)
	ref, err := NewReEval[int64](q, o2, ring.Int{}, countLift)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 4, 5)
		e.Load(rd.Name, base.Clone())
		ref.Load(rd.Name, base.Clone())
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		u := data.NewRelation[int64](ring.Int{}, data.NewSchema("A"))
		u.Merge(data.Ints(int64(rng.Intn(4))), int64(1+rng.Intn(2)))
		fd := FactoredDelta[int64]{Factors: []*data.Relation[int64]{u}}
		if err := e.ApplyFactoredDelta("R", fd); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := ref.ApplyDelta("R", u.Clone()); err != nil {
			t.Fatal(err)
		}
		if !e.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d: %v vs %v", step, e.Result(), ref.Result())
		}
	}
}
