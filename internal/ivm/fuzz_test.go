package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// randomQuery generates a random connected join query: nRels relations over
// a pool of variables, each relation 1-3 variables, connected by
// construction (each relation shares a variable with an earlier one), with
// a random subset of free variables.
func randomQuery(rng *rand.Rand, nRels int) query.Query {
	pool := []string{"A", "B", "C", "D", "E", "F"}
	var rels []query.RelDef
	used := []string{pool[rng.Intn(len(pool))]}
	inUsed := map[string]bool{used[0]: true}
	for i := 0; i < nRels; i++ {
		vars := data.Schema{}
		// Anchor on an already-used variable to stay connected.
		anchor := used[rng.Intn(len(used))]
		vars = append(vars, anchor)
		for len(vars) < 1+rng.Intn(3) {
			v := pool[rng.Intn(len(pool))]
			if !vars.Contains(v) {
				vars = append(vars, v)
				if !inUsed[v] {
					inUsed[v] = true
					used = append(used, v)
				}
			}
		}
		rels = append(rels, query.RelDef{Name: fmt.Sprintf("R%d", i), Schema: vars})
	}
	q := query.Query{Name: "fuzz", Rels: rels}
	// Random free set.
	for _, v := range used {
		if rng.Intn(3) == 0 {
			q.Free = append(q.Free, v)
		}
	}
	return q
}

// TestFuzzRandomQueries builds random queries, derives variable orders
// heuristically, and checks F-IVM, 1-IVM, and DBT against re-evaluation
// over random update streams. This exercises arbitrary (including cyclic)
// join shapes, chain composition, free-variable placement, and the
// materialization rule together.
func TestFuzzRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		q := randomQuery(rng, 2+rng.Intn(3))
		bases := map[string]*data.Relation[int64]{}
		mkOrder := func() *vorder.Order {
			o, err := vorder.Build(q)
			if err != nil {
				t.Fatalf("trial %d: Build: %v\nquery: %+v", trial, err, q)
			}
			return o
		}

		engines := map[string]strategy[int64]{}
		var err error
		if engines["fivm"], err = New[int64](q, mkOrder(), ring.Int{}, countLift, Options[int64]{}); err != nil {
			t.Fatalf("trial %d: fivm: %v\nquery: %+v", trial, err, q)
		}
		if engines["fivm-composed"], err = New[int64](q, mkOrder(), ring.Int{}, countLift, Options[int64]{ComposeChains: true}); err != nil {
			t.Fatalf("trial %d: composed: %v", trial, err)
		}
		if engines["1ivm"], err = NewFirstOrder[int64](q, mkOrder(), ring.Int{}, countLift); err != nil {
			t.Fatalf("trial %d: 1ivm: %v", trial, err)
		}
		if engines["dbt"], err = NewRecursive[int64](q, ring.Int{}, countLift, nil); err != nil {
			t.Fatalf("trial %d: dbt: %v", trial, err)
		}
		ref, err := NewReEval[int64](q, mkOrder(), ring.Int{}, countLift)
		if err != nil {
			t.Fatalf("trial %d: reeval: %v", trial, err)
		}

		for _, rd := range q.Rels {
			base := randomDelta(rng, rd.Schema, 3, rng.Intn(6))
			bases[rd.Name] = base
			for _, m := range engines {
				if err := m.Load(rd.Name, base.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			ref.Load(rd.Name, base.Clone())
		}
		for name, m := range engines {
			if err := m.Init(); err != nil {
				t.Fatalf("trial %d: %s init: %v", trial, name, err)
			}
		}
		if err := ref.Init(); err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 15; step++ {
			rel := q.Rels[rng.Intn(len(q.Rels))]
			delta := randomDelta(rng, rel.Schema, 3, 1+rng.Intn(3))
			bases[rel.Name].MergeAll(delta)
			for name, m := range engines {
				if err := m.ApplyDelta(rel.Name, delta.Clone()); err != nil {
					t.Fatalf("trial %d step %d: %s: %v", trial, step, name, err)
				}
			}
			if err := ref.ApplyDelta(rel.Name, delta.Clone()); err != nil {
				t.Fatal(err)
			}
			want := ref.Result()
			for name, m := range engines {
				if !m.Result().Equal(want, eqInt) {
					t.Fatalf("trial %d step %d: %s diverged on %s\nquery: %+v\norder: %v\n got %v\nwant %v",
						trial, step, name, rel.Name, q, mkOrder(), m.Result(), want)
				}
			}
		}
		// Every materialized view must equal its from-scratch evaluation.
		if err := engines["fivm"].(*Engine[int64]).CheckConsistency(bases, eqInt); err != nil {
			t.Fatalf("trial %d: %v\nquery: %+v", trial, err, q)
		}
	}
}

// TestFuzzIndicators runs random cyclic-ish queries through the engine with
// indicator projections enabled, against re-evaluation.
func TestFuzzIndicators(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		q := randomQuery(rng, 3+rng.Intn(2))
		mkOrder := func() *vorder.Order {
			o, err := vorder.Build(q)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}
		e, err := New[int64](q, mkOrder(), ring.Int{}, countLift, Options[int64]{Indicators: true})
		if err != nil {
			t.Fatalf("trial %d: %v\nquery: %+v", trial, err, q)
		}
		ref, err := NewReEval[int64](q, mkOrder(), ring.Int{}, countLift)
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range q.Rels {
			base := randomDelta(rng, rd.Schema, 3, rng.Intn(6))
			e.Load(rd.Name, base.Clone())
			ref.Load(rd.Name, base.Clone())
		}
		if err := e.Init(); err != nil {
			t.Fatalf("trial %d: init: %v\nquery: %+v", trial, err, q)
		}
		if err := ref.Init(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 15; step++ {
			rel := q.Rels[rng.Intn(len(q.Rels))]
			delta := randomDelta(rng, rel.Schema, 3, 1+rng.Intn(3))
			if err := e.ApplyDelta(rel.Name, delta.Clone()); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := ref.ApplyDelta(rel.Name, delta.Clone()); err != nil {
				t.Fatal(err)
			}
			if !e.Result().Equal(ref.Result(), eqInt) {
				t.Fatalf("trial %d step %d: indicators diverged on %s\nquery: %+v", trial, step, rel.Name, q)
			}
		}
	}
}
