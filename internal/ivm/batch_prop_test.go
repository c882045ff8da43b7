package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// batchStrategies enumerates the four maintainer strategies over a generic
// payload ring, for batched-vs-sequential differential testing.
func batchStrategies[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P]) map[string]func() Maintainer[P] {
	t.Helper()
	return map[string]func() Maintainer[P]{
		"F-IVM": func() Maintainer[P] {
			e, err := New[P](q, paperOrder(), r, lift, Options[P]{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
		"1-IVM": func() Maintainer[P] {
			m, err := NewFirstOrder[P](q, paperOrder(), r, lift)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"DBT": func() Maintainer[P] {
			m, err := NewRecursive[P](q, r, lift, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"RE-EVAL": func() Maintainer[P] {
			m, err := NewReEval[P](q, paperOrder(), r, lift)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
}

// runBatchEquivalence drives a batched and a sequential instance of each
// strategy through identical random batches (with relations repeating inside
// a batch, so coalescing is exercised) and demands identical results after
// every batch.
func runBatchEquivalence[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P],
	mkDelta func(rng *rand.Rand, schema data.Schema) *data.Relation[P], eq func(a, b P) bool) {
	t.Helper()
	for name, mk := range batchStrategies(t, q, r, lift) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 1007))
			batched, seq := mk(), mk()
			for _, m := range []Maintainer[P]{batched, seq} {
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
			}
			rels := q.RelNames()
			for step := 0; step < 12; step++ {
				n := 1 + rng.Intn(6)
				batch := make([]NamedDelta[P], 0, n)
				for i := 0; i < n; i++ {
					rel := rels[rng.Intn(len(rels))]
					rd, _ := q.Rel(rel)
					batch = append(batch, NamedDelta[P]{Rel: rel, Delta: mkDelta(rng, rd.Schema)})
				}
				if err := batched.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				for _, nd := range batch {
					if err := seq.ApplyDelta(nd.Rel, nd.Delta); err != nil {
						t.Fatal(err)
					}
				}
				if !batched.Result().Equal(seq.Result(), eq) {
					t.Fatalf("step %d: batched %v vs sequential %v", step, batched.Result(), seq.Result())
				}
			}
		})
	}
}

// TestApplyDeltasMatchesSequentialInt checks, over the Z ring, that a batch
// applied via ApplyDeltas produces exactly the state of the same updates
// applied one at a time, for all four strategies.
func TestApplyDeltasMatchesSequentialInt(t *testing.T) {
	q := paperQuery("A")
	runBatchEquivalence[int64](t, q, ring.Int{}, valueLift,
		func(rng *rand.Rand, schema data.Schema) *data.Relation[int64] {
			return randomDelta(rng, schema, 4, 1+rng.Intn(4))
		},
		eqInt)
}

// TestApplyDeltasMatchesSequentialFloat repeats the check over the R ring
// with integer-valued payloads, so float addition is exact and results must
// be bit-identical.
func TestApplyDeltasMatchesSequentialFloat(t *testing.T) {
	q := paperQuery("A")
	sumLift := func(v string, x data.Value) float64 {
		if v == "D" {
			return x.AsFloat()
		}
		return 1
	}
	mkDelta := func(rng *rand.Rand, schema data.Schema) *data.Relation[float64] {
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
	runBatchEquivalence[float64](t, q, ring.Float{}, sumLift, mkDelta,
		func(a, b float64) bool { return a == b })
}

// TestApplyDeltasEmptyAndNil checks degenerate batches: empty slices and
// empty deltas are no-ops for every strategy.
func TestApplyDeltasEmptyAndNil(t *testing.T) {
	q := paperQuery()
	for name, mk := range batchStrategies[int64](t, q, ring.Int{}, countLift) {
		t.Run(name, func(t *testing.T) {
			m := mk()
			if err := m.Init(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			rd, _ := q.Rel("S")
			if err := m.ApplyDelta("S", randomDelta(rng, rd.Schema, 3, 5)); err != nil {
				t.Fatal(err)
			}
			before := m.Result().String()
			if err := m.ApplyDeltas(nil); err != nil {
				t.Fatal(err)
			}
			empty := data.NewRelation[int64](ring.Int{}, rd.Schema)
			if err := m.ApplyDeltas([]NamedDelta[int64]{{Rel: "S", Delta: empty}}); err != nil {
				t.Fatal(err)
			}
			// A nil delta is a no-op for every batch shape, including a
			// relation that appears only once (regression: this used to
			// reach the single-delta path and panic).
			if err := m.ApplyDeltas([]NamedDelta[int64]{{Rel: "S", Delta: nil}}); err != nil {
				t.Fatal(err)
			}
			if err := m.ApplyDeltas([]NamedDelta[int64]{{Rel: "S", Delta: nil}, {Rel: "R", Delta: nil}}); err != nil {
				t.Fatal(err)
			}
			if got := m.Result().String(); got != before {
				t.Fatalf("empty batch changed result: %s vs %s", got, before)
			}
		})
	}
}

// TestCoalesceBatchCopyOnWrite checks that coalescing never mutates the
// caller's deltas.
func TestCoalesceBatchCopyOnWrite(t *testing.T) {
	schema := data.NewSchema("A", "B")
	d1 := data.NewRelation[int64](ring.Int{}, schema)
	d1.Merge(data.Ints(1, 2), 3)
	d2 := data.NewRelation[int64](ring.Int{}, schema)
	d2.Merge(data.Ints(1, 2), 4)
	batch := []NamedDelta[int64]{{Rel: "R", Delta: d1}, {Rel: "R", Delta: d2}}
	out := coalesceBatch(batch)
	if len(out) != 1 {
		t.Fatalf("coalesced to %d groups, want 1", len(out))
	}
	if p, _ := out[0].Delta.Get(data.Ints(1, 2)); p != 7 {
		t.Errorf("merged payload = %d, want 7", p)
	}
	if p, _ := d1.Get(data.Ints(1, 2)); p != 3 {
		t.Errorf("caller delta mutated: %d", p)
	}
	// Distinct relations pass through untouched (no copy).
	batch2 := []NamedDelta[int64]{{Rel: "R", Delta: d1}, {Rel: "S", Delta: d2}}
	out2 := coalesceBatch(batch2)
	if len(out2) != 2 || out2[0].Delta != d1 || out2[1].Delta != d2 {
		t.Error("unique-relation batch should pass through unchanged")
	}
}

// contractStrategies is every way this package builds a maintainer — the
// seven constructors, plus Parallel over the engine at three shards and at
// one, and over Recursive (the shared δ-join, sharded) — at float payloads
// (the per-aggregate strategies have no other).
func contractStrategies(q query.Query) map[string]func() (Maintainer[float64], error) {
	one := func(string, data.Value) float64 { return 1 }
	specs := CofactorAggSpecs(data.NewSchema("B"))
	engine := func() (Maintainer[float64], error) {
		return New[float64](q, paperOrder(), ring.Float{}, one, Options[float64]{})
	}
	dbt := func() (Maintainer[float64], error) {
		return NewRecursive[float64](q, ring.Float{}, one, nil)
	}
	return map[string]func() (Maintainer[float64], error){
		"F-IVM": engine,
		"DBT":   dbt,
		"1-IVM": func() (Maintainer[float64], error) {
			return NewFirstOrder[float64](q, paperOrder(), ring.Float{}, one)
		},
		"RE-EVAL": func() (Maintainer[float64], error) {
			return NewReEval[float64](q, paperOrder(), ring.Float{}, one)
		},
		"NAIVE-RE-EVAL": func() (Maintainer[float64], error) {
			return NewNaiveReEval[float64](q, ring.Float{}, one), nil
		},
		"MULTI-1-IVM": func() (Maintainer[float64], error) {
			return NewMultiFirstOrder(q, paperOrder(), specs)
		},
		"MULTI-DBT": func() (Maintainer[float64], error) {
			return NewMultiRecursive(q, specs, nil)
		},
		"PARALLEL": func() (Maintainer[float64], error) {
			return NewParallel[float64](q, ring.Float{}, 3, engine)
		},
		"PARALLEL/1": func() (Maintainer[float64], error) {
			return NewParallel[float64](q, ring.Float{}, 1, engine)
		},
		"PARALLEL/DBT": func() (Maintainer[float64], error) {
			return NewParallel[float64](q, ring.Float{}, 3, dbt)
		},
	}
}

// renderEntries prints key-sorted entries, the common form of a live result
// and of a published one.
func renderEntries[P any](es []data.Entry[P]) string {
	out := ""
	for _, e := range es {
		out += fmt.Sprintf("%v->%v ", e.Tuple, e.Payload)
	}
	return out
}

// TestMaintainerContract is the strategy-independent half of the Maintainer
// contract, one table over every strategy: what is rejected (and leaves the
// state alone), what an empty batch is, and what Snapshot shows when.
func TestMaintainerContract(t *testing.T) {
	q := paperQuery("A")
	rng := rand.New(rand.NewSource(11))
	loaded := map[string]*data.Relation[float64]{}
	for _, rd := range q.Rels {
		loaded[rd.Name] = floatDeltaR(rng, rd.Schema, 3, 6)
	}
	rdR, _ := q.Rel("R")
	rdS, _ := q.Rel("S")
	wide := floatDeltaR(rng, data.NewSchema("A", "B", "C"), 3, 4) // R(A,B) plus a column
	deltaS := floatDeltaR(rng, rdS.Schema, 3, 5)

	live := func(m Maintainer[float64]) string { return renderEntries(m.Result().SortedEntries()) }
	// published leases the latest epoch, checks it carries the live result,
	// and returns its number.
	published := func(t *testing.T, m Maintainer[float64]) uint64 {
		t.Helper()
		s := m.Snapshot()
		defer s.Release()
		if got, want := renderEntries(s.Result().SortedEntries()), live(m); got != want {
			t.Fatalf("epoch %d publishes %s, live result is %s", s.Epoch, got, want)
		}
		return s.Epoch
	}

	rows := []struct {
		name string
		run  func(t *testing.T, m Maintainer[float64])
	}{
		{"unknown relation", func(t *testing.T, m Maintainer[float64]) {
			before := live(m)
			if err := m.Load("nope", loaded["R"]); err == nil {
				t.Error("Load of an unknown relation accepted")
			}
			if err := m.ApplyDelta("nope", floatDeltaR(rng, rdR.Schema, 3, 2)); err == nil {
				t.Error("ApplyDelta to an unknown relation accepted")
			}
			if err := m.ApplyDeltas([]NamedDelta[float64]{{Rel: "nope", Delta: floatDeltaR(rng, rdR.Schema, 3, 2)}}); err == nil {
				t.Error("ApplyDeltas to an unknown relation accepted")
			}
			if got := live(m); got != before {
				t.Errorf("rejected updates changed the result: %s vs %s", got, before)
			}
		}},
		{"wrong-schema Load", func(t *testing.T, m Maintainer[float64]) {
			if err := m.Load("R", wide); err == nil {
				t.Errorf("Load of %v into R%v accepted", wide.Schema(), rdR.Schema)
			}
		}},
		{"wrong-schema delta", func(t *testing.T, m Maintainer[float64]) {
			before := live(m)
			if err := m.ApplyDelta("R", wide); err == nil {
				t.Errorf("delta over %v to R%v accepted", wide.Schema(), rdR.Schema)
			}
			if got := live(m); got != before {
				t.Errorf("rejected delta changed the result: %s vs %s", got, before)
			}
		}},
		{"mixed batch: one bad delta rejects all of it, result and next epoch unchanged", func(t *testing.T, m Maintainer[float64]) {
			before, epoch := live(m), published(t, m)
			bad := []NamedDelta[float64]{{Rel: "S", Delta: deltaS}, {Rel: "nope", Delta: floatDeltaR(rng, rdR.Schema, 3, 2)}}
			if err := m.ApplyDeltas(bad); err == nil {
				t.Fatal("batch with an unknown relation accepted")
			}
			if got := live(m); got != before {
				t.Errorf("rejected batch changed the result: %s vs %s", got, before)
			}
			if got := published(t, m); got != epoch {
				t.Errorf("rejected batch published epoch %d after %d", got, epoch)
			}
			// What the good half would have changed must not ride along with
			// the next batch.
			if err := m.ApplyDeltas(nil); err != nil {
				t.Fatal(err)
			}
			if got := published(t, m); got != epoch+1 || live(m) != before {
				t.Errorf("empty batch after the rejected one: epoch %d -> %d, result %s, was %s", epoch, got, live(m), before)
			}
		}},
		{"empty and all-nil batches", func(t *testing.T, m Maintainer[float64]) {
			// Unpublished first: nothing to publish must not be an excuse to
			// skip anything else.
			before := live(m)
			for _, batch := range [][]NamedDelta[float64]{nil, {{Rel: "S"}, {Rel: "R"}}} {
				if err := m.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
			}
			epoch := published(t, m)
			for _, batch := range [][]NamedDelta[float64]{nil, {}, {{Rel: "S"}, {Rel: "R"}}} {
				if err := m.ApplyDeltas(batch); err != nil {
					t.Fatal(err)
				}
				if got := published(t, m); got != epoch+1 {
					t.Fatalf("batch %v: epoch %d -> %d, want exactly one new epoch", batch, epoch, got)
				}
				epoch++
			}
			if got := live(m); got != before {
				t.Errorf("empty batches changed the result: %s vs %s", got, before)
			}
		}},
		{"Snapshot before and after the first batch", func(t *testing.T, m Maintainer[float64]) {
			first := m.Snapshot() // the enabling call: the state as loaded
			defer first.Release()
			pinned := renderEntries(first.Result().SortedEntries())
			if first.Epoch != 0 || pinned != live(m) || first.Superseded() {
				t.Fatalf("first snapshot: epoch %d, superseded %v, %s vs live %s", first.Epoch, first.Superseded(), pinned, live(m))
			}
			if err := m.ApplyDelta("S", deltaS); err != nil {
				t.Fatal(err)
			}
			if live(m) == pinned {
				t.Fatal("the batch changed nothing: the row tests nothing")
			}
			if got := published(t, m); got != 1 {
				t.Errorf("epoch after the first batch = %d, want 1", got)
			}
			if got := renderEntries(first.Result().SortedEntries()); got != pinned || !first.Superseded() {
				t.Errorf("pinned epoch 0 after the batch: superseded %v, %s, was %s", first.Superseded(), got, pinned)
			}
		}},
	}
	for name, mk := range contractStrategies(q) {
		for _, row := range rows {
			t.Run(name+"/"+row.name, func(t *testing.T) {
				m, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				if c, ok := m.(interface{ Close() error }); ok {
					defer c.Close() // Parallel's workers
				}
				for rel, r := range loaded {
					if err := m.Load(rel, r.Clone()); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Init(); err != nil {
					t.Fatal(err)
				}
				row.run(t, m)
				checkViewTuples(t, name, m)
			})
		}
	}
}
