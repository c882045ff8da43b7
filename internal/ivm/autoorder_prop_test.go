package ivm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// autoStrategies pairs, per strategy, a maintainer over the handpicked
// order with one that self-plans (Order nil).
func autoStrategies[P any](q query.Query, hand func() *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P]) map[string][2]func() (strategy[P], error) {
	return map[string][2]func() (strategy[P], error){
		"F-IVM": {
			func() (strategy[P], error) { return New[P](q, hand(), r, lift, Options[P]{}) },
			func() (strategy[P], error) { return New[P](q, nil, r, lift, Options[P]{}) },
		},
		"1-IVM": {
			func() (strategy[P], error) { return NewFirstOrder[P](q, hand(), r, lift) },
			func() (strategy[P], error) { return NewFirstOrder[P](q, nil, r, lift) },
		},
		"DBT": {
			func() (strategy[P], error) { return NewRecursive[P](q, r, lift, nil) },
			func() (strategy[P], error) { return NewRecursive[P](q, r, lift, nil) },
		},
		"RE-EVAL": {
			func() (strategy[P], error) { return NewReEval[P](q, hand(), r, lift) },
			func() (strategy[P], error) { return NewReEval[P](q, nil, r, lift) },
		},
	}
}

// runAutoOrderEquivalence drives the handpicked-order and self-planned
// maintainers of every strategy through identical random streams (inserts
// and deletes, preloaded contents) and demands byte-identical rendered
// results after every batch.
func runAutoOrderEquivalence[P any](t *testing.T, q query.Query, hand func() *vorder.Order, r ring.Ring[P], lift data.LiftFunc[P],
	mkDelta func(rng *rand.Rand, schema data.Schema) *data.Relation[P]) {
	t.Helper()
	for name, mk := range autoStrategies[P](q, hand, r, lift) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 1009))
			ref, err := mk[0]()
			if err != nil {
				t.Fatal(err)
			}
			auto, err := mk[1]()
			if err != nil {
				t.Fatal(err)
			}
			for _, rd := range q.Rels {
				base := mkDelta(rng, rd.Schema)
				if err := ref.Load(rd.Name, base.Clone()); err != nil {
					t.Fatal(err)
				}
				if err := auto.Load(rd.Name, base.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range []strategy[P]{ref, auto} {
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := auto.Result().String(), ref.Result().String(); got != want {
				t.Fatalf("after Init: auto %s vs handpicked %s", got, want)
			}
			rels := q.RelNames()
			for step := 0; step < 12; step++ {
				batch := make([]NamedDelta[P], 0, 3)
				for i, n := 0, 1+rng.Intn(3); i < n; i++ {
					rel := rels[rng.Intn(len(rels))]
					rd, _ := q.Rel(rel)
					batch = append(batch, NamedDelta[P]{Rel: rel, Delta: mkDelta(rng, rd.Schema)})
				}
				if err := ref.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				if err := auto.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				if got, want := auto.Result().String(), ref.Result().String(); got != want {
					t.Fatalf("step %d: auto %s vs handpicked %s", step, got, want)
				}
			}
		})
	}
}

// intDeltaGen builds small random multiplicity deltas (mixing inserts and
// deletes once keys repeat).
func intDeltaGen(rng *rand.Rand, schema data.Schema) *data.Relation[int64] {
	return randomDelta(rng, schema, 4, 1+rng.Intn(4))
}

func floatDeltaGen(rng *rand.Rand, schema data.Schema) *data.Relation[float64] {
	d := data.NewRelation[float64](ring.Float{}, schema)
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		tup := make(data.Tuple, len(schema))
		for j := range tup {
			tup[j] = data.Int(int64(rng.Intn(4)))
		}
		d.Merge(tup, float64(rng.Intn(5)-2))
	}
	return d
}

func tripleDeltaGen(rng *rand.Rand, schema data.Schema) *data.Relation[ring.Triple] {
	d := data.NewRelation[ring.Triple](ring.Cofactor{}, schema)
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		tup := make(data.Tuple, len(schema))
		for j := range tup {
			tup[j] = data.Int(int64(rng.Intn(4)))
		}
		c := float64(rng.Intn(4) - 1)
		if c == 0 {
			c = 1
		}
		d.Merge(tup, ring.Triple{C: c})
	}
	return d
}

// TestAutoOrderMatchesHandpicked covers the optimizer-equivalence property
// across strategies × rings × queries: self-planned orders must maintain
// byte-identical results to the handpicked ones.
func TestAutoOrderMatchesHandpicked(t *testing.T) {
	cases := []struct {
		qname string
		q     query.Query
		hand  func() *vorder.Order
	}{
		{"paper", paperQuery("A"), paperOrder},
		{"triangle", triangleQuery(), triangleOrder},
	}
	for _, c := range cases {
		vars := c.q.Vars()
		idx := make(map[string]int, len(vars))
		for i, v := range vars {
			idx[v] = i
		}
		t.Run(c.qname+"/int", func(t *testing.T) {
			runAutoOrderEquivalence[int64](t, c.q, c.hand, ring.Int{}, valueLift, intDeltaGen)
		})
		t.Run(c.qname+"/float", func(t *testing.T) {
			runAutoOrderEquivalence[float64](t, c.q, c.hand, ring.Float{},
				func(v string, x data.Value) float64 { return x.AsFloat() + 1 }, floatDeltaGen)
		})
		t.Run(c.qname+"/cofactor", func(t *testing.T) {
			runAutoOrderEquivalence[ring.Triple](t, c.q, c.hand, ring.Cofactor{},
				func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) },
				tripleDeltaGen)
		})
	}
}

// runParallelAutoEquivalence drives an 8-worker sharded wrapper whose
// shards all self-plan (Order nil) against a sequential handpicked engine:
// the reduced result must match byte for byte.
func runParallelAutoEquivalence[P any](t *testing.T, r ring.Ring[P], lift data.LiftFunc[P],
	mkDelta func(rng *rand.Rand, schema data.Schema) *data.Relation[P]) {
	t.Helper()
	q := paperQuery("A")
	rng := rand.New(rand.NewSource(4242))
	par, err := NewParallel[P](q, r, 8,
		func() (*Engine[P], error) { return New[P](q, nil, r, lift, Options[P]{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	seq, err := New[P](q, paperOrder(), r, lift, Options[P]{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range q.Rels {
		base := mkDelta(rng, rd.Schema)
		if err := par.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := seq.Load(rd.Name, base.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := par.Init(); err != nil {
		t.Fatal(err)
	}
	if err := seq.Init(); err != nil {
		t.Fatal(err)
	}
	rels := q.RelNames()
	for step := 0; step < 10; step++ {
		batch := make([]NamedDelta[P], 0, 4)
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			rel := rels[rng.Intn(len(rels))]
			rd, _ := q.Rel(rel)
			batch = append(batch, NamedDelta[P]{Rel: rel, Delta: mkDelta(rng, rd.Schema)})
		}
		if err := par.ApplyDeltas(batch); err != nil {
			t.Fatal(err)
		}
		if err := seq.ApplyDeltas(batch); err != nil {
			t.Fatal(err)
		}
		if got, want := par.Result().String(), seq.Result().String(); got != want {
			t.Fatalf("step %d: parallel-auto %s vs sequential-handpicked %s", step, got, want)
		}
	}
}

// TestAutoOrderMatchesHandpickedParallel repeats the optimizer-equivalence
// property under the sharded parallel wrapper at 8 workers for the Z, R,
// and cofactor rings.
func TestAutoOrderMatchesHandpickedParallel(t *testing.T) {
	q := paperQuery("A")
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	t.Run("int", func(t *testing.T) {
		runParallelAutoEquivalence[int64](t, ring.Int{}, valueLift, intDeltaGen)
	})
	t.Run("float", func(t *testing.T) {
		runParallelAutoEquivalence[float64](t, ring.Float{},
			func(v string, x data.Value) float64 { return x.AsFloat() + 1 }, floatDeltaGen)
	})
	t.Run("cofactor", func(t *testing.T) {
		runParallelAutoEquivalence[ring.Triple](t, ring.Cofactor{},
			func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) },
			tripleDeltaGen)
	})
}

// statsBits renders every figure a collector gives the optimizer —
// cardinality, delta count and each column's distinct estimate, the latter
// bit for bit — per relation of rels, and the delta count over all relations.
func statsBits(st *data.Stats, rels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total deltas=%d\n", st.TotalDeltaTuples())
	for _, rel := range rels {
		rs := st.Lookup(rel)
		if rs == nil {
			fmt.Fprintf(&b, "%s untracked\n", rel)
			continue
		}
		fmt.Fprintf(&b, "%s live=%d deltas=%d", rel, rs.Live, rs.DeltaTuples)
		for _, col := range rs.Schema {
			fmt.Fprintf(&b, " %s=%x", col, math.Float64bits(rs.Distinct(col)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestNilOrderThroughFacadePaths exercises Order-nil construction both with
// pre-collected statistics (plan at New) and without (plan deferred to
// Init). Statistics are read once, to plan: a stream leaves the caller's
// collector bit for bit as it was, and neither engine changes its order.
func TestNilOrderThroughFacadePaths(t *testing.T) {
	q := paperQuery()
	st := data.NewStats()
	for _, rd := range q.Rels {
		rs := st.Rel(rd.Name, rd.Schema)
		for i := 0; i < 50; i++ {
			tup := make(data.Tuple, len(rd.Schema))
			for j := range tup {
				tup[j] = data.Int(int64(i % 7))
			}
			rs.ObserveInsert(tup)
		}
	}
	immediate, err := New[int64](q, nil, ring.Int{}, countLift, Options[int64]{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if immediate.Order() == nil {
		t.Fatal("stats-backed nil-order engine should plan at New")
	}
	deferred, err := New[int64](q, nil, ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if deferred.Order() != nil {
		t.Fatal("deferred engine planned before Init")
	}
	var planned []*vorder.Order
	for _, e := range []*Engine[int64]{immediate, deferred} {
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		if e.Order() == nil {
			t.Fatal("no order after Init")
		}
		if err := e.Order().Validate(q); err != nil {
			t.Fatal(err)
		}
		planned = append(planned, e.Order())
	}
	seeded := statsBits(st, q.RelNames())
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 5; step++ {
		for _, rd := range q.Rels {
			d := randomDelta(rng, rd.Schema, 3, 2)
			if err := immediate.ApplyDelta(rd.Name, d.Clone()); err != nil {
				t.Fatal(err)
			}
			if err := deferred.ApplyDelta(rd.Name, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := deferred.Result().String(), immediate.Result().String(); got != want {
		t.Fatalf("deferred %s vs immediate %s", got, want)
	}
	if got := statsBits(st, q.RelNames()); got != seeded {
		t.Errorf("the stream wrote the planning collector:\n got  %s want %s", got, seeded)
	}
	for i, e := range []*Engine[int64]{immediate, deferred} {
		if e.Order() != planned[i] {
			t.Errorf("engine %d re-planned mid-stream", i)
		}
	}
}
