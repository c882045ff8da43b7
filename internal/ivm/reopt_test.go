package ivm

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// triangleStats seeds wide-variable statistics that make the pairwise join
// view (S⋈T) estimate far larger than the base relations — the shape under
// which inline computation beats storage.
func triangleStats(card, dom int) *data.Stats {
	st := data.NewStats()
	q := triangleQuery()
	for _, rd := range q.Rels {
		rs := st.Rel(rd.Name, rd.Schema)
		for i := 0; i < card; i++ {
			rs.ObserveInsert(data.Ints(int64(i%dom), int64((i*7)%dom)))
		}
		rs.DeltaTuples = int64(card)
	}
	return st
}

// TestCostMaterializeDemotesTriangleView checks that the cost policy drops
// the quadratic pairwise view on the triangle while a plain engine keeps it,
// and that both engines maintain byte-identical results through a random
// insert/delete stream — the inline plan expansion must be exact.
func TestCostMaterializeDemotesTriangleView(t *testing.T) {
	q := triangleQuery()
	st := triangleStats(3000, 400)

	plain, err := New[int64](q, triangleOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	costed, err := New[int64](q, triangleOrder(), ring.Int{}, countLift,
		Options[int64]{CostMaterialize: true, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Init(); err != nil {
		t.Fatal(err)
	}
	if err := costed.Init(); err != nil {
		t.Fatal(err)
	}
	if plain.ViewCount() <= costed.ViewCount() {
		t.Fatalf("cost policy did not demote: plain %d views, costed %d", plain.ViewCount(), costed.ViewCount())
	}

	rng := rand.New(rand.NewSource(99))
	rels := q.RelNames()
	for step := 0; step < 40; step++ {
		rel := rels[rng.Intn(len(rels))]
		rd, _ := q.Rel(rel)
		d := randomDelta(rng, rd.Schema, 5, 1+rng.Intn(4))
		if err := plain.ApplyDelta(rel, d.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := costed.ApplyDelta(rel, d); err != nil {
			t.Fatal(err)
		}
		if got, want := costed.Result().String(), plain.Result().String(); got != want {
			t.Fatalf("step %d: costed %s vs plain %s", step, got, want)
		}
	}
}

// TestCostMaterializeReducesTriangleMemory loads a realistic triangle
// database and checks the demoted engine holds materially less state.
func TestCostMaterializeReducesTriangleMemory(t *testing.T) {
	q := triangleQuery()
	rng := rand.New(rand.NewSource(5))
	mkBase := func(schema data.Schema) *data.Relation[int64] {
		r := data.NewRelation[int64](ring.Int{}, schema)
		for i := 0; i < 2000; i++ {
			r.Merge(data.Ints(int64(rng.Intn(120)), int64(rng.Intn(120))), 1)
		}
		return r
	}
	bases := map[string]*data.Relation[int64]{}
	for _, rd := range q.Rels {
		bases[rd.Name] = mkBase(rd.Schema)
	}
	st := data.NewStats()
	for rel, b := range bases {
		data.ObserveRelation(st, rel, b)
		st.Rel(rel, b.Schema()).DeltaTuples = int64(b.Len())
	}

	load := func(opts Options[int64]) *Engine[int64] {
		e, err := New[int64](q, triangleOrder(), ring.Int{}, countLift, opts)
		if err != nil {
			t.Fatal(err)
		}
		for rel, b := range bases {
			if err := e.Load(rel, b.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	plain := load(Options[int64]{})
	costed := load(Options[int64]{CostMaterialize: true, Stats: st})
	if got, want := costed.Result().String(), plain.Result().String(); got != want {
		t.Fatalf("results diverge: %s vs %s", got, want)
	}
	if cm, pm := costed.MemoryBytes(), plain.MemoryBytes(); cm >= pm {
		t.Fatalf("cost policy did not reduce memory: %d vs %d", cm, pm)
	}
	// Without caller statistics the decision defers to Init and must be made
	// from the loaded data, not structural defaults: same demotion, same
	// result.
	owned := load(Options[int64]{CostMaterialize: true})
	if got, want := owned.Result().String(), plain.Result().String(); got != want {
		t.Fatalf("deferred-plan results diverge: %s vs %s", got, want)
	}
	if om, pm := owned.MemoryBytes(), plain.MemoryBytes(); om >= pm {
		t.Fatalf("deferred cost policy did not reduce memory: %d vs %d", om, pm)
	}
}

// TestAdaptiveReoptimizationMigrates drives an adaptive engine through a
// stream whose statistics drift hard (one relation balloons), checks that it
// re-plans at least once, and that its result stays byte-identical to a
// static reference engine throughout.
func TestAdaptiveReoptimizationMigrates(t *testing.T) {
	q := triangleQuery()
	// Start from an order that is fine while every domain is tiny but bad
	// once C gets wide: C(A(B)) stores the pairwise R⋈S view keyed [C,A].
	badStart := mustOrderCAB
	adaptive, err := New[int64](q, badStart(), ring.Int{}, countLift,
		Options[int64]{AutoReoptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New[int64](q, badStart(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := adaptive.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	adaptive.Snapshot().Release() // publishing, like a db view: removed root rows retire

	rng := rand.New(rand.NewSource(31))
	apply := func(rel string, wideC bool) {
		rd, _ := q.Rel(rel)
		d := data.NewRelation[int64](ring.Int{}, rd.Schema)
		for i := 0; i < 6; i++ {
			a, b := int64(rng.Intn(4)), int64(rng.Intn(4))
			if wideC {
				// Column C of S and T draws from a wide domain.
				wide := int64(rng.Intn(500))
				switch rel {
				case "S": // (B, C)
					b = wide
				case "T": // (C, A)
					a = wide
				}
			}
			d.Merge(data.Ints(a, b), 1)
		}
		if err := adaptive.ApplyDelta(rel, d.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyDelta(rel, d); err != nil {
			t.Fatal(err)
		}
		if got, want := adaptive.Result().String(), ref.Result().String(); got != want {
			t.Fatalf("adaptive %s vs ref %s", got, want)
		}
	}
	// Phase 1: uniform tiny updates.
	for i := 0; i < 16; i++ {
		apply(q.RelNames()[i%3], false)
	}
	// Phase 2: S and T balloon with a wide C domain; the [C,*]-keyed view of
	// the starting order explodes relative to the plan-time snapshot and a
	// rotation that marginalizes C deepest becomes clearly cheaper.
	for i := 0; i < 120; i++ {
		apply(q.RelNames()[1+i%2], true) // S, T
	}
	if adaptive.Replans() == 0 {
		t.Fatal("no re-plan despite hard statistics drift")
	}
	// Post-migration maintenance must remain correct for every relation, and
	// with no epoch held no view may keep a removed row waiting.
	for i := 0; i < 24; i++ {
		apply(q.RelNames()[i%3], i%2 == 0)
	}
	checkViewTuples[int64](t, "after the replans", adaptive)
	if ps := adaptive.PoolStats(); ps.RowsRetired != 0 {
		t.Errorf("%d removed rows wait on epochs nobody holds: %+v", ps.RowsRetired, ps)
	}
}

func mustOrderCAB() *vorder.Order {
	return vorder.MustNew(vorder.V("C", vorder.V("A", vorder.V("B"))))
}

// TestAdaptiveRejectsIncompatibleOptions pins the constructor guard.
func TestAdaptiveRejectsIncompatibleOptions(t *testing.T) {
	q := triangleQuery()
	if _, err := New[int64](q, triangleOrder(), ring.Int{}, countLift,
		Options[int64]{AutoReoptimize: true, Indicators: true}); err == nil {
		t.Fatal("AutoReoptimize+Indicators accepted")
	}
}

// TestReplanPartialReuseKeepsSubtreeViews pins the migration bug where a
// reused view's subtree was skipped entirely: descendants of an unchanged
// view (its leaves above all) must still be installed in the new plan's
// view map, or delta plans panic on missing siblings / silently stop
// maintaining leaves. The query has two components so one subtree's
// signature survives while the other changes.
func TestReplanPartialReuseKeepsSubtreeViews(t *testing.T) {
	q := query.MustNew("two", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("C", "D")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "E")},
	)
	mkOrder := func(first, second string) *vorder.Order {
		return vorder.MustNew(vorder.Chain(first, second), vorder.V("C", vorder.V("D"), vorder.V("E")))
	}
	adaptive, err := New[int64](q, mkOrder("A", "B"), ring.Int{}, countLift,
		Options[int64]{AutoReoptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New[int64](q, mkOrder("A", "B"), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 3, 6)
		if err := adaptive.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.Load(rd.Name, base); err != nil {
			t.Fatal(err)
		}
	}
	if err := adaptive.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}

	// Force a migration that flips only the R component; the C component's
	// whole subtree signature is unchanged and must be transferred with its
	// descendants intact.
	if err := adaptive.replan(mkOrder("B", "A")); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		for _, rd := range q.Rels {
			d := randomDelta(rng, rd.Schema, 3, 2)
			if err := adaptive.ApplyDelta(rd.Name, d.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := ref.ApplyDelta(rd.Name, d); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := adaptive.Result().String(), ref.Result().String(); got != want {
			t.Fatalf("step %d: migrated %s vs ref %s", step, got, want)
		}
	}
	// And a second migration must start from healthy harvested leaves.
	if err := adaptive.replan(mkOrder("A", "B")); err != nil {
		t.Fatal(err)
	}
	d := randomDelta(rng, data.NewSchema("C", "D"), 3, 3)
	if err := adaptive.ApplyDelta("S", d.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := ref.ApplyDelta("S", d); err != nil {
		t.Fatal(err)
	}
	if got, want := adaptive.Result().String(), ref.Result().String(); got != want {
		t.Fatalf("after second migration: %s vs %s", got, want)
	}
}
