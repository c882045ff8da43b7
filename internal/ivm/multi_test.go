package ivm

import (
	"math"
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// floatDeltaR builds a random float multiplicity delta.
func floatDeltaR(rng *rand.Rand, schema data.Schema, dom, n int) *data.Relation[float64] {
	d := data.NewRelation[float64](ring.Float{}, schema)
	for i := 0; i < n; i++ {
		t := make(data.Tuple, len(schema))
		for j := range t {
			t[j] = data.Int(int64(rng.Intn(dom)))
		}
		d.Merge(t, 1)
	}
	return d
}

// TestMultiStrategiesAgree drives the per-aggregate scalar strategies (the
// paper's DBT and 1-IVM cofactor competitors) and checks every aggregate
// against the shared-computation cofactor engine.
func TestMultiStrategiesAgree(t *testing.T) {
	q := paperQuery()
	rng := rand.New(rand.NewSource(41))
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	specs := CofactorAggSpecs(vars)

	mfo, err := NewMultiFirstOrder(q, paperOrder(), ring.Float{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	mrec, err := NewMultiRecursive(q, ring.Float{}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	compound, err := New[ring.Triple](q, paperOrder(), ring.Cofactor{},
		func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) },
		Options[ring.Triple]{})
	if err != nil {
		t.Fatal(err)
	}
	// Load shared initial data.
	for _, rd := range q.Rels {
		base := floatDeltaR(rng, rd.Schema, 3, 6)
		if err := mfo.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := mrec.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
		tb := data.NewRelation[ring.Triple](ring.Cofactor{}, rd.Schema)
		base.Iterate(func(tup data.Tuple, m float64) bool {
			tb.Merge(tup, ring.Triple{C: m})
			return true
		})
		if err := compound.Load(rd.Name, tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, init := range []func() error{mfo.Init, mrec.Init, compound.Init} {
		if err := init(); err != nil {
			t.Fatal(err)
		}
	}

	checkAll := func(step int) {
		tr, _ := compound.Result().Get(data.Tuple{})
		for i, s := range specs {
			var want float64
			var degVars []string
			for v, d := range s.Degrees {
				for k := 0; k < d; k++ {
					degVars = append(degVars, v)
				}
			}
			switch len(degVars) {
			case 0:
				want = tr.Count()
			case 1:
				want = tr.SumOf(idx[degVars[0]])
			default:
				want = tr.QuadOf(idx[degVars[0]], idx[degVars[1]])
			}
			for name, result := range map[string]*data.Relation[float64]{
				"1-IVM": mfo.results[i], "DBT": mrec.instances[i].Result(),
			} {
				got, _ := result.Get(data.Tuple{})
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("step %d %s agg %v: %v, want %v", step, name, s.Degrees, got, want)
				}
			}
		}
	}
	checkAll(-1)

	for step := 0; step < 8; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		delta := floatDeltaR(rng, rd.Schema, 3, 1+rng.Intn(2))
		if err := mfo.ApplyDelta(rel, delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := mrec.ApplyDelta(rel, delta.Clone()); err != nil {
			t.Fatal(err)
		}
		td := data.NewRelation[ring.Triple](ring.Cofactor{}, rd.Schema)
		delta.Iterate(func(tup data.Tuple, m float64) bool {
			td.Merge(tup, ring.Triple{C: m})
			return true
		})
		if err := compound.ApplyDelta(rel, td); err != nil {
			t.Fatal(err)
		}
		checkAll(step)
	}

	// Bookkeeping methods.
	if mfo.ViewCount() <= len(q.Rels) {
		t.Error("MultiFirstOrder view count")
	}
	if mrec.ViewCount() <= mfo.ViewCount() {
		t.Error("MultiRecursive should have far more views")
	}
	if mfo.MemoryBytes() <= 0 || mrec.MemoryBytes() <= 0 {
		t.Error("memory accounting")
	}
	if mfo.Result() == nil || mrec.Result() == nil {
		t.Error("Result accessors")
	}
}

// TestNaiveReEvalAgrees checks the unfactorized re-evaluation baseline
// (DBT-RE) against factorized re-evaluation.
func TestNaiveReEvalAgrees(t *testing.T) {
	q := paperQuery("A")
	rng := rand.New(rand.NewSource(42))
	naive := NewNaiveReEval[int64](q, ring.Int{}, valueLift)
	ref, err := NewReEval[int64](q, paperOrder(), ring.Int{}, valueLift)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 3, 5)
		naive.Load(rd.Name, base.Clone())
		ref.Load(rd.Name, base.Clone())
	}
	if err := naive.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 15; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 3, 1+rng.Intn(3))
		if err := naive.ApplyDelta(rel, delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyDelta(rel, delta.Clone()); err != nil {
			t.Fatal(err)
		}
		if !naive.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d: naive %v vs factorized %v", step, naive.Result(), ref.Result())
		}
	}
	if naive.ViewCount() != 4 {
		t.Errorf("ViewCount = %d", naive.ViewCount())
	}
	if naive.MemoryBytes() <= 0 {
		t.Error("MemoryBytes")
	}
	if err := naive.ApplyDelta("nope", nil); err == nil {
		t.Error("unknown relation should fail")
	}
	if err := naive.Load("nope", nil); err == nil {
		t.Error("unknown relation should fail")
	}
}

// TestCofactorAggSpecsCount checks the 1 + m + m(m+1)/2 aggregate count the
// paper reports (990 for Retailer's 43 variables, 406 for Housing's 27).
func TestCofactorAggSpecsCount(t *testing.T) {
	for _, tc := range []struct{ m, want int }{{43, 990}, {27, 406}, {3, 10}} {
		vars := make(data.Schema, tc.m)
		for i := range vars {
			vars[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		if got := len(CofactorAggSpecs(vars)); got != tc.want {
			t.Errorf("m=%d: %d aggregates, want %d", tc.m, got, tc.want)
		}
	}
}
