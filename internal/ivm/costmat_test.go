package ivm

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
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
