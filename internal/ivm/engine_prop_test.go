package ivm

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// TestInsertDeleteRoundtrip checks that applying a delta followed by its
// additive inverse restores every materialized view exactly — the
// ring-theoretic foundation of uniform insert/delete handling (Section 2).
func TestInsertDeleteRoundtrip(t *testing.T) {
	q := paperQuery()
	rng := rand.New(rand.NewSource(21))
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range q.Rels {
		e.Load(rd.Name, randomDelta(rng, rd.Schema, 4, 10))
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}

	snapshot := func() map[string]string {
		out := map[string]string{}
		e.Tree().Walk(func(n *viewtree.Node) {
			if v := e.ViewOf(n); v != nil {
				out[n.Name()] = v.String()
			}
		})
		return out
	}
	before := snapshot()

	for step := 0; step < 20; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 4, 1+rng.Intn(4))
		if err := e.ApplyDelta(rel, delta); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyDelta(rel, delta.Negate()); err != nil {
			t.Fatal(err)
		}
		after := snapshot()
		if len(after) != len(before) {
			t.Fatalf("step %d: view count changed", step)
		}
		for name, s := range before {
			if after[name] != s {
				t.Fatalf("step %d: view %s changed:\n before %s\n after  %s", step, name, s, after[name])
			}
		}
	}
}

// TestBatchEqualsSingleTuple checks that one batched delta equals the same
// tuples applied one at a time.
func TestBatchEqualsSingleTuple(t *testing.T) {
	q := paperQuery("A")
	rng := rand.New(rand.NewSource(22))
	mk := func() *Engine[int64] {
		e, err := New[int64](q, paperOrder(), ring.Int{}, valueLift, Options[int64]{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	batched, single := mk(), mk()
	for step := 0; step < 15; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 4, 1+rng.Intn(5))
		if err := batched.ApplyDelta(rel, delta); err != nil {
			t.Fatal(err)
		}
		delta.Iterate(func(tup data.Tuple, p int64) bool {
			one := data.NewRelation[int64](ring.Int{}, rd.Schema)
			one.Merge(tup, p)
			if err := single.ApplyDelta(rel, one); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if !batched.Result().Equal(single.Result(), eqInt) {
			t.Fatalf("step %d: batch and single-tuple application diverged", step)
		}
	}
}

// TestUpdateOrderInvariance checks that the final state depends only on the
// final database, not on the interleaving of updates across relations.
func TestUpdateOrderInvariance(t *testing.T) {
	q := paperQuery()
	rng := rand.New(rand.NewSource(23))

	type upd struct {
		rel   string
		delta *data.Relation[int64]
	}
	var updates []upd
	for i := 0; i < 30; i++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		updates = append(updates, upd{rel: rel, delta: randomDelta(rng, rd.Schema, 4, 1+rng.Intn(3))})
	}
	apply := func(order []int) *data.Relation[int64] {
		e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := e.ApplyDelta(updates[i].rel, updates[i].delta.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		return e.Result()
	}
	base := make([]int, len(updates))
	for i := range base {
		base[i] = i
	}
	want := apply(base)
	for trial := 0; trial < 3; trial++ {
		perm := rng.Perm(len(updates))
		if got := apply(perm); !got.Equal(want, eqInt) {
			t.Fatalf("permutation %d changed the final result", trial)
		}
	}
}

// TestCofactorSharesNineAggregates checks the Example 1.1 claim: one
// compound cofactor payload maintains the same values as nine independently
// maintained scalar aggregates over the same views.
func TestCofactorSharesNineAggregates(t *testing.T) {
	q := paperQuery()
	rng := rand.New(rand.NewSource(24))
	vars := q.Vars() // A, B, C, E, D order as discovered
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}

	compound, err := New[ring.Triple](q, paperOrder(), ring.Cofactor{},
		func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) },
		Options[ring.Triple]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := compound.Init(); err != nil {
		t.Fatal(err)
	}

	specs := CofactorAggSpecs(vars)
	scalars := make([]*Engine[float64], len(specs))
	for i, s := range specs {
		sc, err := New[float64](q, paperOrder(), ring.Float{}, s.Lift, Options[float64]{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Init(); err != nil {
			t.Fatal(err)
		}
		scalars[i] = sc
	}

	toTriple := func(d *data.Relation[int64]) *data.Relation[ring.Triple] {
		cf := ring.Cofactor{}
		out := data.NewRelation[ring.Triple](cf, d.Schema())
		d.Iterate(func(tup data.Tuple, m int64) bool {
			p := cf.Zero()
			for k := int64(0); k < m; k++ {
				p = cf.Add(p, cf.One())
			}
			if m < 0 {
				p = cf.Neg(cf.Zero())
				for k := int64(0); k < -m; k++ {
					p = cf.Add(p, cf.Neg(cf.One()))
				}
			}
			out.Merge(tup, p)
			return true
		})
		return out
	}
	toFloat := func(d *data.Relation[int64]) *data.Relation[float64] {
		out := data.NewRelation[float64](ring.Float{}, d.Schema())
		d.Iterate(func(tup data.Tuple, m int64) bool {
			out.Merge(tup, float64(m))
			return true
		})
		return out
	}

	for step := 0; step < 15; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 3, 1+rng.Intn(3))
		if err := compound.ApplyDelta(rel, toTriple(delta)); err != nil {
			t.Fatal(err)
		}
		for _, sc := range scalars {
			if err := sc.ApplyDelta(rel, toFloat(delta)); err != nil {
				t.Fatal(err)
			}
		}

		tr, _ := compound.Result().Get(data.Tuple{})
		for i, s := range specs {
			want, _ := scalars[i].Result().Get(data.Tuple{})
			var got float64
			var degVars []string
			for v, d := range s.Degrees {
				for k := 0; k < d; k++ {
					degVars = append(degVars, v)
				}
			}
			switch len(degVars) {
			case 0:
				got = tr.Count()
			case 1:
				got = tr.SumOf(idx[degVars[0]])
			case 2:
				got = tr.QuadOf(idx[degVars[0]], idx[degVars[1]])
			}
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("step %d agg %v: compound %v vs scalar %v", step, s.Degrees, got, want)
			}
		}
	}
}

// TestSQLOPTMatchesCofactorEngine drives the degree-map (SQL-OPT) and
// cofactor-ring engines through the same stream: same views, same
// aggregates, different encodings.
func TestSQLOPTMatchesCofactorEngine(t *testing.T) {
	q := paperQuery()
	rng := rand.New(rand.NewSource(25))
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	cf, err := New[ring.Triple](q, paperOrder(), ring.Cofactor{},
		func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) },
		Options[ring.Triple]{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(cf.Init())
	dm, err := New[ring.DegMap](q, paperOrder(), ring.DegreeMap{},
		func(v string, x data.Value) ring.DegMap { return ring.LiftDegMap(idx[v], x.AsFloat()) },
		Options[ring.DegMap]{})
	must(err)
	must(dm.Init())

	for step := 0; step < 20; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		n := 1 + rng.Intn(3)
		dTriple := data.NewRelation[ring.Triple](ring.Cofactor{}, rd.Schema)
		dDeg := data.NewRelation[ring.DegMap](ring.DegreeMap{}, rd.Schema)
		for i := 0; i < n; i++ {
			tup := make(data.Tuple, len(rd.Schema))
			for j := range tup {
				tup[j] = data.Int(int64(rng.Intn(3)))
			}
			dTriple.Merge(tup, ring.Cofactor{}.One())
			dDeg.Merge(tup, ring.DegreeMap{}.One())
		}
		must(cf.ApplyDelta(rel, dTriple))
		must(dm.ApplyDelta(rel, dDeg))

		tr, _ := cf.Result().Get(data.Tuple{})
		mp, _ := dm.Result().Get(data.Tuple{})
		if got, want := mp[ring.CountDeg], tr.Count(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("step %d: count %v vs %v", step, got, want)
		}
		for i := range vars {
			if got, want := mp[ring.LinDeg(i)], tr.SumOf(i); math.Abs(got-want) > 1e-6 {
				t.Fatalf("step %d: lin(%d) %v vs %v", step, i, got, want)
			}
			for j := i; j < len(vars); j++ {
				if got, want := mp[ring.QuadDeg(i, j)], tr.QuadOf(i, j); math.Abs(got-want) > 1e-6 {
					t.Fatalf("step %d: quad(%d,%d) %v vs %v", step, i, j, got, want)
				}
			}
		}
	}
}

// TestFactoredDeltaGeneralQuery checks Example 5.2: a factorizable update
// δS = δS_A ⊗ δS_C ⊗ δS_E to the paper query propagates identically to its
// expansion.
func TestFactoredDeltaGeneralQuery(t *testing.T) {
	q := paperQuery()
	rng := rand.New(rand.NewSource(26))
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{Updatable: []string{"S"}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReEval[int64](q, paperOrder(), ring.Int{}, countLift)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range q.Rels {
		base := randomDelta(rng, rd.Schema, 4, 12)
		e.Load(rd.Name, base.Clone())
		ref.Load(rd.Name, base.Clone())
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(); err != nil {
		t.Fatal(err)
	}

	unary := func(v string, n int) *data.Relation[int64] {
		r := data.NewRelation[int64](ring.Int{}, data.NewSchema(v))
		for i := 0; i < n; i++ {
			r.Merge(data.Ints(int64(rng.Intn(4))), int64(1+rng.Intn(2)))
		}
		return r
	}
	for step := 0; step < 15; step++ {
		fd := FactoredDelta[int64]{Factors: []*data.Relation[int64]{
			unary("A", 1+rng.Intn(2)),
			unary("C", 1+rng.Intn(2)),
			unary("E", 1+rng.Intn(2)),
		}}
		if err := e.ApplyFactoredDelta("S", fd); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyDelta("S", fd.Expand(data.NewSchema("A", "C", "E"))); err != nil {
			t.Fatal(err)
		}
		if !e.Result().Equal(ref.Result(), eqInt) {
			t.Fatalf("step %d: factored delta diverged: %v vs %v", step, e.Result(), ref.Result())
		}
	}
}

// TestEmptyDeltaIsNoOp applies an empty delta and checks nothing changes.
func TestEmptyDeltaIsNoOp(t *testing.T) {
	q := paperQuery()
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	for _, rd := range q.Rels {
		e.Load(rd.Name, randomDelta(rng, rd.Schema, 3, 5))
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	before := e.Result().String()
	empty := data.NewRelation[int64](ring.Int{}, data.NewSchema("C", "D"))
	if err := e.ApplyDelta("T", empty); err != nil {
		t.Fatal(err)
	}
	if got := e.Result().String(); got != before {
		t.Errorf("empty delta changed the result: %s vs %s", got, before)
	}
}

// TestDeltaSchemaReorder checks that deltas given in a permuted column
// order are normalized correctly.
func TestDeltaSchemaReorder(t *testing.T) {
	q := paperQuery()
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	// S has schema (A, C, E); send a delta over (E, A, C).
	d := data.NewRelation[int64](ring.Int{}, data.NewSchema("E", "A", "C"))
	d.Merge(data.Ints(9, 1, 2), 1)
	if err := e.ApplyDelta("S", d); err != nil {
		t.Fatal(err)
	}
	// Confirm via the materialized S-view (keys A, C after ⊕E).
	found := false
	e.Tree().Walk(func(n *viewtree.Node) {
		if n.Var == "E" {
			if v := e.ViewOf(n); v != nil {
				if p, ok := v.Get(data.Ints(1, 2)); ok && p == 1 {
					found = true
				}
			}
		}
	})
	if !found {
		t.Error("permuted delta was not normalized into the view")
	}
}

// TestMemoryBytesGrowsWithData sanity-checks the memory accounting.
func TestMemoryBytesGrowsWithData(t *testing.T) {
	q := paperQuery()
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	m0 := e.MemoryBytes()
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 20; i++ {
		e.ApplyDelta("S", randomDelta(rng, data.NewSchema("A", "C", "E"), 10, 5))
	}
	if m1 := e.MemoryBytes(); m1 <= m0 {
		t.Errorf("MemoryBytes did not grow: %d -> %d", m0, m1)
	}
}

// TestStepOutputOwnership drives a plan whose steps, along the path of R,
// alternate the ways a step output holds its tuples — sharing the leaf delta's
// (V@B: no sibling, a prefix projection), projecting into its own slab (V@A:
// not a prefix projection), and sharing the previous step's slab tuples (V@Z:
// a prefix projection of a slab-backed input) — through 60 churn batches fed
// the way db.View feeds an engine, from refilled scratch relations (every
// fourth batch from ones that hold copies of the tuples in their own slabs,
// every fourth from ones handed the tuples of a batch arena rewound right
// after), against the ReEval oracle. After every batch every view entry must
// still hold the tuple of its key: a view that adopted a step output's tuple
// without copying it reads the next batch's values here.
func TestStepOutputOwnership(t *testing.T) {
	q := query.MustNew("Q", data.NewSchema("Z", "C"),
		query.RelDef{Name: "R", Schema: data.NewSchema("Z", "A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C")},
		query.RelDef{Name: "U", Schema: data.NewSchema("Z", "W")},
	)
	order := func() *vorder.Order {
		return vorder.MustNew(vorder.V("Z", vorder.V("A", vorder.V("B"), vorder.V("C")), vorder.V("W")))
	}
	e, err := New[int64](q, order(), ring.Int{}, valueLift, Options[int64]{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewReEval[int64](q, order(), ring.Int{}, valueLift)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []strategy[int64]{e, oracle} {
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
	}
	e.Snapshot().Release()

	var shares []bool
	for _, st := range e.plans[e.root.LeafOf("R")].steps {
		shares = append(shares, st.outProj.IsPrefix())
	}
	if want := []bool{true, false, true}; !slices.Equal(shares, want) {
		t.Fatalf("plan of R: steps share %v (want %v)\n%s", shares, want, e.Tree())
	}

	rng := rand.New(rand.NewSource(29))
	feeds := map[string]*data.Relation[int64]{}
	var history []NamedDelta[int64]
	var arena data.BatchArena
	for b := 0; b < 60; b++ {
		var batch []NamedDelta[int64]
		for _, rd := range q.Rels {
			if rng.Intn(3) == 0 {
				continue
			}
			d := randomDelta(rng, rd.Schema, 3, 1+rng.Intn(8))
			if len(history) > 0 && rng.Intn(2) == 0 {
				// Retract a past delta of this relation: groups run empty and
				// come back, so views keep adopting keys.
				if h := history[rng.Intn(len(history))]; h.Rel == rd.Name {
					d = h.Delta.Negate()
				}
			}
			history = append(history, NamedDelta[int64]{Rel: rd.Name, Delta: d})
			feed := feeds[rd.Name]
			if feed == nil {
				feed = data.NewRelation[int64](ring.Int{}, rd.Schema)
				feed.RecycleCleared()
				feeds[rd.Name] = feed
			}
			feed.Clear()
			drop := data.MustProjector(append(data.NewSchema("_"), rd.Schema...), rd.Schema) // not a prefix
			d.Iterate(func(tu data.Tuple, p int64) bool {
				switch b % 4 {
				case 3:
					// A feed that projected its tuples into its own slab:
					// rewound, with every step output, at the next batch.
					feed.MergeProjected(drop, append(data.Tuple{data.Int(0)}, tu...), p)
				case 2:
					// A feed handed the tuples of a batch arena, as db.View's
					// conversion is by POST /apply: dead at the rewind below.
					feed.Merge(append(arena.Tuple(len(tu))[:0], tu...), p)
				default:
					feed.Merge(tu, p)
				}
				return true
			})
			batch = append(batch, NamedDelta[int64]{Rel: rd.Name, Delta: feed})
		}
		for _, m := range []strategy[int64]{e, oracle} {
			if err := m.ApplyDeltas(batch); err != nil {
				t.Fatal(err)
			}
		}
		arena.Rewind()
		checkViewTuples[int64](t, "batch "+strconv.Itoa(b), e)
		if !sameDump(dumpResult(e.Result(), ring.Int{}), dumpResult(oracle.Result(), ring.Int{}), eqInt) {
			t.Fatalf("batch %d: result differs from re-evaluation", b)
		}
		s := e.Snapshot()
		if !sameDump(dumpSnapshot(s.Result(), ring.Int{}), dumpResult(oracle.Result(), ring.Int{}), eqInt) {
			t.Fatalf("batch %d: published result differs from re-evaluation", b)
		}
		s.Release()
	}
	if ps := e.PoolStats(); ps.TupleBytes == 0 || ps.KeyBytes == 0 {
		t.Fatalf("60 batches never reached a step output's slabs: %+v", ps)
	}
}

// TestSameStreamSameSums: delta propagation is a function of the view tree
// and the update, so two engines fed one seeded stream add up the same floats
// in the same order and agree on every result bit after every batch. The
// batches are what a clock-gated merge mode would have forked on: hundreds of
// work items per marginalizing step, nearly all onto a handful of output
// keys, with values no sum of which is exact.
func TestSameStreamSameSums(t *testing.T) {
	q := paperQuery("A")
	lift := func(_ string, v data.Value) float64 { return v.AsFloat() }
	run := func() []uint64 {
		rng := rand.New(rand.NewSource(77))
		e, err := New[float64](q, paperOrder(), ring.Float{}, lift, Options[float64]{})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Init(); err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for batch := 0; batch < 60; batch++ {
			rd := q.Rels[batch%len(q.Rels)]
			d := data.NewRelation[float64](ring.Float{}, rd.Schema)
			for i := 0; i < 400; i++ {
				tu := make(data.Tuple, len(rd.Schema))
				for j := range tu {
					tu[j] = data.Float(float64(1+rng.Intn(3)) + float64(rng.Intn(7))/10)
				}
				tu[0] = data.Float(float64(1 + rng.Intn(3))) // A, or C of T: few join keys
				d.Merge(tu, 0.1*float64(1+rng.Intn(9)))
			}
			if err := e.ApplyDelta(rd.Name, d); err != nil {
				t.Fatal(err)
			}
			for _, en := range e.Result().SortedEntries() {
				bits = append(bits, math.Float64bits(en.Payload))
			}
		}
		return bits
	}
	first := run()
	if len(first) < 60 {
		t.Fatalf("%d result payloads over 60 batches: the join is empty", len(first))
	}
	for rep := 0; rep < 3; rep++ {
		if again := run(); !slices.Equal(first, again) {
			t.Fatalf("run %d of one seeded stream summed in another order", rep+2)
		}
	}
}
