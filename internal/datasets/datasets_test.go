package datasets

import (
	"slices"
	"testing"

	"fivm/internal/data"
	"fivm/internal/viewtree"
)

func TestRetailerSchemaHas43Attributes(t *testing.T) {
	q := RetailerQuery()
	if got := len(q.Vars()); got != 43 {
		t.Errorf("retailer variables = %d, want 43 (paper)", got)
	}
	if len(q.Rels) != 5 {
		t.Errorf("retailer relations = %d, want 5", len(q.Rels))
	}
}

func TestHousingSchemaHas27Attributes(t *testing.T) {
	q := HousingQuery()
	if got := len(q.Vars()); got != 27 {
		t.Errorf("housing variables = %d, want 27 (paper)", got)
	}
	if len(q.Rels) != 6 {
		t.Errorf("housing relations = %d, want 6", len(q.Rels))
	}
	// Star schema: every relation contains postcode.
	for _, r := range q.Rels {
		if !r.Schema.Contains("postcode") {
			t.Errorf("%s lacks postcode", r.Name)
		}
	}
}

func TestRetailerOrderValid(t *testing.T) {
	q := RetailerQuery()
	o := RetailerOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatalf("retailer order invalid: %v", err)
	}
}

func TestRetailerOrderYieldsNineViews(t *testing.T) {
	// The paper's F-IVM stores 9 views on Retailer: five per-relation
	// views, three intermediates, and the root.
	q := RetailerQuery()
	o := RetailerOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	root, err := viewtree.Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	root = viewtree.CollapseIdentical(root)
	root = viewtree.ComposeChains(root)
	inner := 0
	root.Walk(func(n *viewtree.Node) {
		if !n.IsLeaf() {
			inner++
		}
	})
	if inner != 9 {
		t.Errorf("composed retailer view tree has %d views, want 9 (paper)", inner)
	}
}

func TestHousingOrderYieldsSevenViews(t *testing.T) {
	// The paper's F-IVM stores 7 views on Housing: one per relation plus
	// the root.
	q := HousingQuery()
	o := HousingOrder()
	if err := o.Prepare(q); err != nil {
		t.Fatal(err)
	}
	root, err := viewtree.Build(o, q)
	if err != nil {
		t.Fatal(err)
	}
	root = viewtree.CollapseIdentical(root)
	root = viewtree.ComposeChains(root)
	inner := 0
	root.Walk(func(n *viewtree.Node) {
		if !n.IsLeaf() {
			inner++
		}
	})
	if inner != 7 {
		t.Errorf("composed housing view tree has %d views, want 7 (paper)", inner)
	}
}

func TestGenRetailerShape(t *testing.T) {
	cfg := RetailerConfig{Locations: 5, Dates: 10, Items: 20, ItemsPerLocDate: 4, Seed: 1}
	ds := GenRetailer(cfg)
	if got := len(ds.Tuples["Inventory"]); got != 5*10*4 {
		t.Errorf("inventory tuples = %d", got)
	}
	if got := len(ds.Tuples["Location"]); got != 5 {
		t.Errorf("location tuples = %d", got)
	}
	// Inventory dominates.
	if len(ds.Tuples["Inventory"])*2 < ds.TotalTuples() {
		t.Error("Inventory should dominate the dataset")
	}
	// Arity checks.
	for _, rd := range ds.Query.Rels {
		for _, tup := range ds.Tuples[rd.Name][:1] {
			if len(tup) != len(rd.Schema) {
				t.Errorf("%s arity %d, want %d", rd.Name, len(tup), len(rd.Schema))
			}
		}
	}
}

func TestGenRetailerDeterministic(t *testing.T) {
	a := GenRetailer(RetailerConfig{Locations: 3, Dates: 4, Items: 5, ItemsPerLocDate: 2, Seed: 9})
	b := GenRetailer(RetailerConfig{Locations: 3, Dates: 4, Items: 5, ItemsPerLocDate: 2, Seed: 9})
	for rel := range a.Tuples {
		if len(a.Tuples[rel]) != len(b.Tuples[rel]) {
			t.Fatalf("%s: nondeterministic size", rel)
		}
		for i := range a.Tuples[rel] {
			if !slices.Equal(a.Tuples[rel][i], b.Tuples[rel][i]) {
				t.Fatalf("%s[%d]: nondeterministic tuple", rel, i)
			}
		}
	}
}

func TestGenHousingScale(t *testing.T) {
	base := GenHousing(HousingConfig{Postcodes: 10, Scale: 1, Seed: 2})
	big := GenHousing(HousingConfig{Postcodes: 10, Scale: 3, Seed: 2})
	if len(big.Tuples["House"]) != 3*len(base.Tuples["House"]) {
		t.Error("House should scale linearly")
	}
	if len(big.Tuples["Transport"]) != len(base.Tuples["Transport"]) {
		t.Error("Transport should not scale")
	}
}

func TestGenTwitterSplit(t *testing.T) {
	ds := GenTwitter(TwitterConfig{Users: 50, Edges: 300, Seed: 3})
	total := len(ds.Tuples["R"]) + len(ds.Tuples["S"]) + len(ds.Tuples["T"])
	if total != 300 {
		t.Errorf("total edges = %d, want 300", total)
	}
	// Thirds within rounding.
	if r := len(ds.Tuples["R"]); r < 99 || r > 101 {
		t.Errorf("R third = %d", r)
	}
	// No self-loops.
	for _, rel := range []string{"R", "S", "T"} {
		for _, e := range ds.Tuples[rel] {
			if e[0] == e[1] {
				t.Fatalf("self-loop in %s: %v", rel, e)
			}
		}
	}
}

func TestRoundRobinStreamCoversEverything(t *testing.T) {
	ds := GenHousing(HousingConfig{Postcodes: 7, Scale: 2, Seed: 4})
	stream := RoundRobinStream(ds, ds.Query.RelNames(), 5)
	counts := map[string]int{}
	for _, b := range stream {
		if len(b.Tuples) == 0 || len(b.Tuples) > 5 {
			t.Fatalf("batch size %d", len(b.Tuples))
		}
		counts[b.Rel] += len(b.Tuples)
	}
	for rel, tuples := range ds.Tuples {
		if counts[rel] != len(tuples) {
			t.Errorf("%s: streamed %d of %d tuples", rel, counts[rel], len(tuples))
		}
	}
	// Round-robin: the first batches cycle through the relations.
	seen := map[string]bool{}
	for i := 0; i < len(ds.Tuples) && i < len(stream); i++ {
		if seen[stream[i].Rel] {
			t.Errorf("relation %s repeated before the cycle completed", stream[i].Rel)
		}
		seen[stream[i].Rel] = true
	}
}

func TestSingleRelationStream(t *testing.T) {
	ds := GenHousing(HousingConfig{Postcodes: 7, Scale: 1, Seed: 4})
	stream := SingleRelationStream(ds, "House", 3)
	total := 0
	for _, b := range stream {
		if b.Rel != "House" {
			t.Fatalf("unexpected relation %s", b.Rel)
		}
		total += len(b.Tuples)
	}
	if total != len(ds.Tuples["House"]) {
		t.Errorf("streamed %d of %d", total, len(ds.Tuples["House"]))
	}
}

func TestTriangleOrderValid(t *testing.T) {
	q := TriangleQuery()
	if err := TriangleOrder().Prepare(q); err != nil {
		t.Fatal(err)
	}
	var _ data.Schema = q.Vars()
}
