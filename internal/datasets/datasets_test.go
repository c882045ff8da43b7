package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"runtime/debug"
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

// datasetHash is the SHA-256 of every relation in name order: its name and
// tuple count, then each tuple's AppendKey, len and cap.
func datasetHash(d *Dataset) string {
	h := sha256.New()
	var buf []byte
	for _, rel := range slices.Sorted(maps.Keys(d.Tuples)) {
		buf = binary.AppendUvarint(append(buf[:0], rel...), uint64(len(d.Tuples[rel])))
		h.Write(buf)
		for _, t := range d.Tuples[rel] {
			buf = binary.AppendUvarint(binary.AppendUvarint(t.AppendKey(buf[:0]), uint64(len(t))), uint64(cap(t)))
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsGolden pins each generator's output, value for value and in
// order, at two configurations each: a generator may change how it lays out
// its tuples, never what it draws.
func TestGeneratorsGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() *Dataset
		want string
	}{
		{"retailer/default", func() *Dataset { return GenRetailer(DefaultRetailer()) },
			"5fe1ceb9f40615bb66d14aea190994752d5bbd6f458559a865c3c583f9f3962c"},
		{"retailer/small", func() *Dataset {
			return GenRetailer(RetailerConfig{Locations: 7, Dates: 13, Items: 31, ItemsPerLocDate: 5, Seed: 9})
		},
			"b4a355b6f3ac897b17c0ca5257ac596c67c8d3cdb750ea07cc30339ea32c996f"},
		{"housing/default", func() *Dataset { return GenHousing(DefaultHousing()) },
			"cac5fb75574aab65c6ca2aeda065fc44d1b7fff79ab6df2b2375c7a2ef0a0370"},
		{"housing/small", func() *Dataset { return GenHousing(HousingConfig{Postcodes: 37, Scale: 3, Seed: 5}) },
			"b03141ddb4b932ceffea301918eda485e6a1ac61058709600403dab5fa59972f"},
		{"twitter/default", func() *Dataset { return GenTwitter(DefaultTwitter()) },
			"09f180d42a071a283e68b431124243587b3e503d0dddaf0fe61742406be4218c"},
		{"twitter/small", func() *Dataset { return GenTwitter(TwitterConfig{Users: 50, Edges: 301, Seed: 4}) },
			"5b9ceca0a1629f5042fc3ef098cfca751826906cd5b1d22f6477f91e34f8633b"},
	} {
		if got := datasetHash(c.gen()); got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAllocGuardGenerators checks that a generator buys a fixed number of
// objects however many tuples it makes: each relation's tuples are cut from
// one block of cells, so a fourfold scale costs no object more. The collector
// is paused while it counts: a cycle that lands inside a measured run adds
// objects of its own, one or two, more often at the larger scale.
func TestAllocGuardGenerators(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(gen func()) float64 { return testing.AllocsPerRun(3, gen) }
	for _, c := range []struct {
		name       string
		small, big func()
	}{
		{"retailer",
			func() { GenRetailer(RetailerConfig{Locations: 10, Dates: 20, Items: 50, ItemsPerLocDate: 10, Seed: 1}) },
			func() { GenRetailer(RetailerConfig{Locations: 10, Dates: 80, Items: 50, ItemsPerLocDate: 10, Seed: 1}) }},
		{"housing",
			func() { GenHousing(HousingConfig{Postcodes: 100, Scale: 2, Seed: 2}) },
			func() { GenHousing(HousingConfig{Postcodes: 400, Scale: 2, Seed: 2}) }},
		{"twitter",
			func() { GenTwitter(TwitterConfig{Users: 400, Edges: 2000, Seed: 3}) },
			func() { GenTwitter(TwitterConfig{Users: 400, Edges: 8000, Seed: 3}) }},
	} {
		small, big := allocs(c.small), allocs(c.big)
		t.Logf("%s: %.0f objects at 1x, %.0f at 4x", c.name, small, big)
		if small != big {
			t.Errorf("%s: %.0f objects at 1x but %.0f at 4x; a generator must not buy an object per tuple", c.name, small, big)
		}
	}
}

// BenchmarkGenRetailer generates the default Retailer dataset, the set-up of
// every in-process benchmark workload; allocs/op is the generator's fixed
// object count (TestAllocGuardGenerators).
func BenchmarkGenRetailer(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		GenRetailer(DefaultRetailer())
	}
}
