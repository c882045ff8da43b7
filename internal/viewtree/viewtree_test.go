package viewtree

import (
	"slices"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

func paperQuery(free ...string) query.Query {
	return query.MustNew("Q", data.Schema(free),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C", "E")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")},
	)
}

func paperOrder(t *testing.T, q query.Query) *vorder.Order {
	t.Helper()
	o := vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C", vorder.V("D"), vorder.V("E"))))
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBuildFigure2b checks the view tree of Figure 2b: the COUNT query with
// no free variables.
func TestBuildFigure2b(t *testing.T) {
	q := paperQuery()
	o := paperOrder(t, q)
	root, err := Build(o, q)
	if err != nil {
		t.Fatal(err)
	}

	// Root: V@A over {R,S,T} with empty keys.
	if root.Var != "A" || len(root.Keys) != 0 {
		t.Fatalf("root = %s keys %v", root.Name(), root.Keys)
	}
	if len(root.Rels) != 3 {
		t.Errorf("root rels = %v", root.Rels)
	}
	// Children: V@B (over R, keys [A]) and V@C (over S,T, keys [A]).
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d", len(root.Children))
	}
	vb, vc := root.Children[0], root.Children[1]
	if vb.Var != "B" || !vb.Keys.SameSet(data.NewSchema("A")) {
		t.Errorf("V@B keys = %v", vb.Keys)
	}
	if vc.Var != "C" || !vc.Keys.SameSet(data.NewSchema("A")) {
		t.Errorf("V@C keys = %v", vc.Keys)
	}
	// V@D has keys [C], V@E keys [A,C].
	var vd, ve *Node
	for _, c := range vc.Children {
		switch c.Var {
		case "D":
			vd = c
		case "E":
			ve = c
		}
	}
	if vd == nil || !vd.Keys.SameSet(data.NewSchema("C")) {
		t.Errorf("V@D = %v", vd)
	}
	if ve == nil || !ve.Keys.SameSet(data.NewSchema("A", "C")) {
		t.Errorf("V@E = %v", ve)
	}
	// Leaves.
	if root.LeafOf("R") == nil || root.LeafOf("S") == nil || root.LeafOf("T") == nil {
		t.Error("missing leaves")
	}
}

// TestBuildExample11 checks the view tree of Example 1.1 / Figure 1: free
// variables A and C.
func TestBuildExample11(t *testing.T) {
	q := paperQuery("A", "C")
	o := paperOrder(t, q)
	root, err := Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	root = CollapseIdentical(root)
	// The root view keeps keys [A,C] (free variables retained).
	if !root.Keys.SameSet(data.NewSchema("A", "C")) {
		t.Errorf("root keys = %v", root.Keys)
	}
	// No marginalization of free variables anywhere.
	root.Walk(func(n *Node) {
		for _, m := range n.Marg {
			if m == "A" || m == "C" {
				t.Errorf("free variable %s marginalized at %s", m, n.Name())
			}
		}
	})
}

func TestMaterializeFigure5(t *testing.T) {
	// Example 4.2: for updates to T only, materialize the root, V@E (=VS)
	// and V@B (=VR); V@C and V@D are not needed.
	q := paperQuery()
	o := paperOrder(t, q)
	root, err := Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	mat := Materialize(root, []string{"T"})

	byName := map[string]*Node{}
	root.Walk(func(n *Node) { byName[n.Var] = n })

	if !mat[root] {
		t.Error("root must be materialized")
	}
	if !mat[byName["B"]] {
		t.Error("V@B must be materialized for updates to T")
	}
	if !mat[byName["E"]] {
		t.Error("V@E must be materialized for updates to T")
	}
	if mat[byName["D"]] {
		t.Error("V@D must not be materialized for updates to T")
	}
	// The T leaf itself is not needed (stream not stored).
	leafT := root.LeafOf("T")
	if mat[leafT] {
		t.Error("leaf T should not be stored for updates to T only")
	}
	// Count: root, V@B, V@E, plus the C-subtree sibling checks.
	if got := countStored(mat); got < 3 {
		t.Errorf("materialized = %d, want >= 3", got)
	}
}

// countStored is how many views µ marks for materialization.
func countStored(mat map[*Node]bool) int {
	n := 0
	for _, stored := range mat {
		if stored {
			n++
		}
	}
	return n
}

func TestMaterializeAllUpdatable(t *testing.T) {
	q := paperQuery()
	o := paperOrder(t, q)
	root, _ := Build(o, q)
	mat := Materialize(root, []string{"R", "S", "T"})
	// Every inner view is materialized when all relations change. The raw
	// leaves are not: each is the only child relation of its parent, so no
	// delta ever probes it (the aggregated view above it is what siblings
	// join with).
	root.Walk(func(n *Node) {
		if n.IsLeaf() {
			if mat[n] {
				t.Errorf("leaf %s should not be materialized", n.Name())
			}
			return
		}
		if !mat[n] {
			t.Errorf("%s should be materialized", n.Name())
		}
	})
}

func TestMaterializeNoUpdates(t *testing.T) {
	q := paperQuery()
	o := paperOrder(t, q)
	root, _ := Build(o, q)
	mat := Materialize(root, nil)
	if got := countStored(mat); got != 1 {
		t.Errorf("materialized = %d, want only the root", got)
	}
}

func TestComposeChains(t *testing.T) {
	// A wide relation W(A,B,C,D) under a chain order A-B-C-D produces a
	// chain of single-child marginalization views; composition collapses
	// them into one multi-variable marginalization.
	q := query.MustNew("wide", nil,
		query.RelDef{Name: "W", Schema: data.NewSchema("A", "B", "C", "D")})
	o := vorder.MustNew(vorder.Chain("A", "B", "C", "D"))
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	root, err := Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	depthBefore := treeDepth(root)
	root = ComposeChains(root)
	if got := treeDepth(root); got >= depthBefore {
		t.Errorf("depth %d not reduced from %d", got, depthBefore)
	}
	// The composed root marginalizes all four variables over the leaf.
	if !data.Schema(root.Marg).SameSet(data.NewSchema("A", "B", "C", "D")) {
		t.Errorf("root marg = %v", root.Marg)
	}
	if len(root.Children) != 1 || !root.Children[0].IsLeaf() {
		t.Errorf("composed root should sit directly on the leaf")
	}
}

func treeDepth(n *Node) int {
	best := 0
	for _, c := range n.Children {
		if d := treeDepth(c); d > best {
			best = d
		}
	}
	return best + 1
}

func TestCollapseIdentical(t *testing.T) {
	// With free variables A and C on top of the order A-C-(B,D,E), the
	// views at A and C can be identical; only the top one is kept.
	q := paperQuery("A", "C")
	o := vorder.MustNew(vorder.V("A", vorder.V("C", vorder.V("B"), vorder.V("D"), vorder.V("E"))))
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	root, err := Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	before := countNodes(root)
	root = CollapseIdentical(root)
	after := countNodes(root)
	if after >= before {
		t.Errorf("CollapseIdentical: %d -> %d nodes", before, after)
	}
	if !root.Keys.SameSet(data.NewSchema("A", "C")) {
		t.Errorf("root keys = %v", root.Keys)
	}
}

func countNodes(n *Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// --- indicator projections -------------------------------------------------

func triangleSetup(t *testing.T) (query.Query, *Node) {
	t.Helper()
	q := query.MustNew("tri", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("B", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "A")},
	)
	o := vorder.MustNew(vorder.V("A", vorder.V("B", vorder.V("C"))))
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	root, err := Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	return q, root
}

// TestAddIndicatorsTriangle reproduces Appendix B / Figure 9: the view at C
// over S and T gets the indicator projection ∃_{A,B} R.
func TestAddIndicatorsTriangle(t *testing.T) {
	q, root := triangleSetup(t)
	added := AddIndicators(root, q)
	if len(added) != 1 {
		t.Fatalf("added %d indicators, want 1", len(added))
	}
	ind := added[0]
	if ind.Rel != "R" || !ind.Indicator {
		t.Errorf("indicator = %+v", ind)
	}
	if !ind.Keys.SameSet(data.NewSchema("A", "B")) {
		t.Errorf("indicator keys = %v", ind.Keys)
	}
	// It must hang below the view at C.
	if ind.Parent().Var != "C" {
		t.Errorf("indicator parent = %s, want V@C", ind.Parent().Name())
	}
	if !strings.Contains(ind.Name(), "Ind(R)") {
		t.Errorf("Name() = %q", ind.Name())
	}
}

func TestAddIndicatorsAcyclicNoOp(t *testing.T) {
	q := paperQuery()
	o := paperOrder(t, q)
	root, _ := Build(o, q)
	if added := AddIndicators(root, q); len(added) != 0 {
		t.Errorf("acyclic query got %d indicators", len(added))
	}
}

// --- IndicatorTracker (paper Example B.2) -----------------------------------

func TestIndicatorTrackerExampleB2(t *testing.T) {
	relSchema := data.NewSchema("A", "B")
	tr := NewIndicatorTracker(relSchema, data.NewSchema("A"))

	// Load R = {(a1,b1), (a1,b2), (a2,b3)}.
	for _, tup := range []data.Tuple{data.Ints(1, 1), data.Ints(1, 2), data.Ints(2, 3)} {
		tr.Update(tup, 1)
	}
	if tr.Len() != 2 {
		t.Fatalf("live keys = %d, want 2", tr.Len())
	}

	// Removing (a1,b2) leaves a1 still covered: no indicator change.
	if _, flip := tr.Update(data.Ints(1, 2), -1); flip != 0 {
		t.Errorf("flip = %d, want 0", flip)
	}
	// Removing (a1,b1) drops the count to 0: delta {(a1) -> -1}.
	pt, flip := tr.Update(data.Ints(1, 1), -1)
	if flip != -1 || !slices.Equal(pt, data.Ints(1)) {
		t.Errorf("flip = %d at %v, want -1 at (1)", flip, pt)
	}
	// Inserting a fresh a3 creates {(a3) -> +1}.
	pt, flip = tr.Update(data.Ints(3, 9), 1)
	if flip != 1 || !slices.Equal(pt, data.Ints(3)) {
		t.Errorf("flip = %d at %v, want +1 at (3)", flip, pt)
	}
}

func TestNodeHelpers(t *testing.T) {
	q := paperQuery()
	o := paperOrder(t, q)
	root, _ := Build(o, q)
	if !slices.Contains(root.Rels, "S") || slices.Contains(root.Rels, "Z") {
		t.Errorf("Rels = %v", root.Rels)
	}
	if got := len(root.Leaves()); got != 3 {
		t.Errorf("leaves = %d", got)
	}
	s := root.String()
	if !strings.Contains(s, "V@A[]") || !strings.Contains(s, "T") {
		t.Errorf("String() = %q", s)
	}
}

// Len returns the number of live indicator keys.
func (tr *IndicatorTracker) Len() int { return len(tr.counts) }
