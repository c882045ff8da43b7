package ivm

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// TestStarQueryMultiSiblingStages is a regression test for the join-stage
// product scratch: a 4-relation star query gives delta plans three sibling
// stages, so a work-item payload produced at stage k (or aliased through the
// identity short-circuit) must survive stages k+1 and k+2. A buffer scheme
// that reuses stage slots too early corrupts exactly this shape. Identity
// payloads (count 1) exercise the alias path; the engine is checked against
// re-evaluation ground truth after every update.
func TestStarQueryMultiSiblingStages(t *testing.T) {
	q := query.MustNew("star", data.NewSchema("A"),
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C")},
		query.RelDef{Name: "T", Schema: data.NewSchema("A", "D")},
		query.RelDef{Name: "U", Schema: data.NewSchema("A", "E")},
	)
	mkOrder := func() *vorder.Order {
		return vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C"), vorder.V("D"), vorder.V("E")))
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Int", func(t *testing.T) {
			eng, err := New[int64](q, mkOrder(), ring.Int{}, countLift, Options[int64]{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReEval[int64](q, mkOrder(), ring.Int{}, countLift)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []strategy[int64]{eng, ref} {
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(11))
			rels := q.RelNames()
			for step := 0; step < 25; step++ {
				rel := rels[rng.Intn(len(rels))]
				rd, _ := q.Rel(rel)
				delta := randomDelta(rng, rd.Schema, 3, 1+rng.Intn(4))
				if err := eng.ApplyDelta(rel, delta); err != nil {
					t.Fatal(err)
				}
				if err := ref.ApplyDelta(rel, delta); err != nil {
					t.Fatal(err)
				}
				if got, want := eng.Result().String(), ref.Result().String(); got != want {
					t.Fatalf("step %d (%s): engine %s vs re-evaluation %s", step, rel, got, want)
				}
			}
		}},
		{"Cofactor", func(t *testing.T) {
			vars := q.Vars()
			idx := make(map[string]int, len(vars))
			for i, v := range vars {
				idx[v] = i
			}
			lift := func(v string, x data.Value) ring.Triple {
				return ring.LiftValue(idx[v], x.AsFloat())
			}
			cf := ring.Cofactor{}
			eng, err := New[ring.Triple](q, mkOrder(), cf, lift, Options[ring.Triple]{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReEval[ring.Triple](q, mkOrder(), cf, lift)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []strategy[ring.Triple]{eng, ref} {
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(12))
			rels := q.RelNames()
			for step := 0; step < 25; step++ {
				rel := rels[rng.Intn(len(rels))]
				rd, _ := q.Rel(rel)
				delta := data.NewRelation[ring.Triple](cf, rd.Schema)
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					tup := make(data.Tuple, len(rd.Schema))
					for j := range tup {
						tup[j] = data.Int(int64(rng.Intn(3)))
					}
					// Mostly identity payloads, so the alias fast path of the
					// product scratch fires.
					delta.Merge(tup, ring.Triple{C: 1})
				}
				if err := eng.ApplyDelta(rel, delta); err != nil {
					t.Fatal(err)
				}
				if err := ref.ApplyDelta(rel, delta); err != nil {
					t.Fatal(err)
				}
				if got, want := eng.Result().String(), ref.Result().String(); got != want {
					t.Fatalf("step %d (%s): engine %s vs re-evaluation %s", step, rel, got, want)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
