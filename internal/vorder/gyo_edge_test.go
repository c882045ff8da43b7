package vorder

import (
	"testing"

	"fivm/internal/data"
)

// TestGYODuplicateVarsWithinEdge pins the set semantics: a variable
// repeated inside a single hyperedge must not count as shared. R(A,A,B)
// alone is a single-relation hypergraph and therefore acyclic.
func TestGYODuplicateVarsWithinEdge(t *testing.T) {
	edges := []Hyperedge{{Name: "R", Vars: data.Schema{"A", "A", "B"}}}
	if core := GYO(edges); len(core) != 0 {
		t.Fatalf("duplicate-var single edge reported cyclic: %v", core)
	}
	// Duplicates must also not change the verdict when the variable is
	// genuinely shared with another edge.
	edges = []Hyperedge{
		{Name: "R", Vars: data.Schema{"A", "A", "B"}},
		{Name: "S", Vars: data.Schema{"B", "C"}},
	}
	if len(GYO(edges)) != 0 {
		t.Fatal("path R-S with an internal duplicate reported cyclic")
	}
	// And the caller's slices stay untouched.
	if len(edges[0].Vars) != 3 {
		t.Fatal("GYO mutated the caller's edge")
	}
}

// TestGYOSingleEdge pins that any one-edge hypergraph is acyclic: all its
// variables are ears, after which the empty edge is removed.
func TestGYOSingleEdge(t *testing.T) {
	for _, vars := range []data.Schema{
		data.NewSchema("A"),
		data.NewSchema("A", "B", "C", "D"),
	} {
		if core := GYO([]Hyperedge{{Name: "R", Vars: vars}}); len(core) != 0 {
			t.Fatalf("single edge %v reported cyclic: %v", vars, core)
		}
	}
}

// TestGYOFullyCyclicCoreIsFixpoint pins that a chordless cycle has no ears:
// the reduction removes nothing and returns every edge, sorted by name.
func TestGYOFullyCyclicCoreIsFixpoint(t *testing.T) {
	square := []Hyperedge{
		{Name: "R4", Vars: data.NewSchema("D", "A")},
		{Name: "R1", Vars: data.NewSchema("A", "B")},
		{Name: "R2", Vars: data.NewSchema("B", "C")},
		{Name: "R3", Vars: data.NewSchema("C", "D")},
	}
	core := GYO(square)
	if len(core) != 4 {
		t.Fatalf("4-cycle core = %v", core)
	}
	for i, want := range []string{"R1", "R2", "R3", "R4"} {
		if core[i].Name != want {
			t.Fatalf("core order = %v, want sorted by name", core)
		}
		if len(core[i].Vars) != 2 {
			t.Fatalf("core edge %s lost variables: %v", core[i].Name, core[i].Vars)
		}
	}
	// A triangle with an attached ear path reduces to exactly the triangle.
	tri := []Hyperedge{
		{Name: "R", Vars: data.NewSchema("A", "B")},
		{Name: "S", Vars: data.NewSchema("B", "C")},
		{Name: "T", Vars: data.NewSchema("C", "A")},
		{Name: "Tail", Vars: data.NewSchema("C", "X", "Y")},
	}
	core = GYO(tri)
	if len(core) != 3 {
		t.Fatalf("triangle+tail core = %v", core)
	}
}
