package ivm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// parallelStrategies enumerates the sequential strategies the sharded
// engine is differentially tested against.
func parallelStrategies[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P]) map[string]func() (strategy[P], error) {
	t.Helper()
	return map[string]func() (strategy[P], error){
		"F-IVM": func() (strategy[P], error) {
			return New[P](q, paperOrder(), r, lift, Options[P]{})
		},
		"1-IVM": func() (strategy[P], error) {
			return NewFirstOrder[P](q, paperOrder(), r, lift)
		},
		"DBT": func() (strategy[P], error) {
			return NewRecursive[P](q, r, lift, nil)
		},
		"RE-EVAL": func() (strategy[P], error) {
			return NewReEval[P](q, paperOrder(), r, lift)
		},
	}
}

// runParallelEquivalence drives a sharded engine (workers in {1, 2, 8}) and
// a sequential instance of each strategy through identical random batches —
// mixing sharded and broadcast relations, inserts and deletes, and preloaded
// contents — and demands byte-identical rendered results after every batch.
func runParallelEquivalence[P any](t *testing.T, q query.Query, r ring.Ring[P], lift data.LiftFunc[P],
	mkDelta func(rng *rand.Rand, schema data.Schema) *data.Relation[P]) {
	t.Helper()
	engine := func() (*Engine[P], error) { return New[P](q, paperOrder(), r, lift, Options[P]{}) }
	for name, mk := range parallelStrategies(t, q, r, lift) {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))*313 + int64(workers)))
				par, err := NewParallel[P](q, r, workers, engine)
				if err != nil {
					t.Fatal(err)
				}
				defer par.Close()
				seq, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				if par.Workers() != workers {
					t.Fatalf("Workers() = %d, want %d", par.Workers(), workers)
				}

				// Preload some contents so Init's split/replicate path is
				// exercised too.
				for _, rd := range q.Rels {
					base := mkDelta(rng, rd.Schema)
					if err := par.Load(rd.Name, base); err != nil {
						t.Fatal(err)
					}
					if err := seq.Load(rd.Name, base); err != nil {
						t.Fatal(err)
					}
				}
				for _, m := range []strategy[P]{par, seq} {
					if err := m.Init(); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := par.Result().String(), seq.Result().String(); got != want {
					t.Fatalf("after Init: parallel %s vs sequential %s", got, want)
				}

				rels := q.RelNames()
				for step := 0; step < 10; step++ {
					n := 1 + rng.Intn(5)
					batch := make([]NamedDelta[P], 0, n)
					for i := 0; i < n; i++ {
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
					got, want := par.Result().String(), seq.Result().String()
					if got != want {
						t.Fatalf("step %d: parallel %s vs sequential %s", step, got, want)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequentialInt checks the sharded engine over the Z ring
// against all four strategies.
func TestParallelMatchesSequentialInt(t *testing.T) {
	q := paperQuery("A")
	runParallelEquivalence[int64](t, q, ring.Int{}, valueLift,
		func(rng *rand.Rand, schema data.Schema) *data.Relation[int64] {
			return randomDelta(rng, schema, 4, 1+rng.Intn(4))
		})
}

// TestParallelMatchesSequentialFloat repeats the check over the R ring with
// integral values, so float addition is exact and the reduction across
// shards must be bit-identical.
func TestParallelMatchesSequentialFloat(t *testing.T) {
	q := paperQuery("A")
	sumLiftD := func(v string, x data.Value) float64 {
		if v == "D" {
			return x.AsFloat()
		}
		return 1
	}
	runParallelEquivalence[float64](t, q, ring.Float{}, sumLiftD,
		func(rng *rand.Rand, schema data.Schema) *data.Relation[float64] {
			d := data.NewRelation[float64](ring.Float{}, schema)
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				tup := make(data.Tuple, len(schema))
				for j := range tup {
					tup[j] = data.Int(int64(rng.Intn(4)))
				}
				d.Merge(tup, float64(rng.Intn(5)-2))
			}
			return d
		})
}

// TestParallelMatchesSequentialCofactor repeats the check over the cofactor
// ring — the workload the parallel engine targets — with a free group-by
// variable, so shard results stay keyed and the merged result must align
// key-wise and triple-wise.
func TestParallelMatchesSequentialCofactor(t *testing.T) {
	q := paperQuery("A")
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	lift := func(v string, x data.Value) ring.Triple {
		return ring.LiftValue(idx[v], x.AsFloat())
	}
	cf := ring.Cofactor{}
	runParallelEquivalence[ring.Triple](t, q, cf, lift,
		func(rng *rand.Rand, schema data.Schema) *data.Relation[ring.Triple] {
			d := data.NewRelation[ring.Triple](cf, schema)
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
		})
}

// TestParallelAggregateRoot checks the empty-key root case: every variable
// aggregated away, so each shard produces a scalar payload and Result
// reduces them. The count of the join must match the sequential engine
// exactly.
func TestParallelAggregateRoot(t *testing.T) {
	q := paperQuery() // no free variables
	rng := rand.New(rand.NewSource(77))
	mk := func() (*Engine[int64], error) {
		return New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	}
	par, err := NewParallel[int64](q, ring.Int{}, 4, mk)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	seq, _ := mk()
	for _, m := range []strategy[int64]{par, seq} {
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 8; step++ {
		rel := q.RelNames()[rng.Intn(3)]
		rd, _ := q.Rel(rel)
		delta := randomDelta(rng, rd.Schema, 3, 1+rng.Intn(5))
		if err := par.ApplyDelta(rel, delta); err != nil {
			t.Fatal(err)
		}
		if err := seq.ApplyDelta(rel, delta); err != nil {
			t.Fatal(err)
		}
		if got, want := par.Result().String(), seq.Result().String(); got != want {
			t.Fatalf("step %d: parallel %s vs sequential %s", step, got, want)
		}
	}
}

// TestParallelShardVar pins the shard-variable choice: the variable covered
// by the most relations.
func TestParallelShardVar(t *testing.T) {
	if v := pickShardVar(paperQuery()); v != "A" {
		t.Fatalf("paper query shard var = %q, want A (covers R and S)", v)
	}
}

// TestParallelSequentialFallback checks that workers=1 is one shard through
// the common route/propagate/reduce path, equal to the bare engine after a
// batch.
func TestParallelSequentialFallback(t *testing.T) {
	q := paperQuery("A")
	mk := func() (*Engine[int64], error) {
		return New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	}
	par, err := NewParallel[int64](q, ring.Int{}, 1, mk)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if par.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", par.Workers())
	}
	bare, _ := mk()
	rng := rand.New(rand.NewSource(3))
	var batch []NamedDelta[int64]
	for _, rd := range q.Rels {
		batch = append(batch, NamedDelta[int64]{Rel: rd.Name, Delta: randomDelta(rng, rd.Schema, 3, 4)})
	}
	for _, m := range []strategy[int64]{par, bare} {
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyDeltas(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := par.Result().String(), bare.Result().String(); got != want || bare.Result().Len() == 0 {
		t.Fatalf("one shard %s vs the bare engine %s", got, want)
	}
}

// TestParallelRejectedBatchLeavesNoRoutes: a batch the router rejects leaves
// no routed tuples behind and changes nothing — not the result, and not the
// next good batch, which brings the result to exactly the sequential
// oracle's. The router runs the engines' own admission rule, so this holds
// also for what only an engine knows, its updatable set: a delta to a
// non-updatable relation, broadcast or sharded, is refused before any shard
// applies the rest of the batch.
func TestParallelRejectedBatchLeavesNoRoutes(t *testing.T) {
	q := paperQuery("A")
	mk := func() (*Engine[int64], error) {
		// Only R is updatable: S carries the shard variable A, T does not.
		return New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{Updatable: []string{"R"}})
	}
	par, err := NewParallel[int64](q, ring.Int{}, 3, mk)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	seq, _ := mk()
	rng := rand.New(rand.NewSource(5))
	delta := func(rel string) NamedDelta[int64] {
		rd, _ := q.Rel(rel)
		return NamedDelta[int64]{Rel: rel, Delta: randomDelta(rng, rd.Schema, 3, 6)}
	}
	// spread is a delta to R over twelve values of A, which reaches every
	// shard; oneS is one tuple of S, which reaches one.
	spread := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "B"))
	for a := int64(0); a < 12; a++ {
		spread.Merge(data.Ints(a, a), 1)
	}
	oneS := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "C", "E"))
	oneS.Merge(data.Ints(1, 1, 1), 1)
	loadS, loadT, first := delta("S").Delta, delta("T").Delta, []NamedDelta[int64]{delta("R")}
	for _, m := range []strategy[int64]{par, seq} {
		if err := m.Load("S", loadS); err != nil {
			t.Fatal(err)
		}
		if err := m.Load("T", loadT); err != nil {
			t.Fatal(err)
		}
		if err := m.Init(); err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyDeltas(first); err != nil {
			t.Fatal(err)
		}
	}
	before := par.Result().String()
	for _, bad := range [][]NamedDelta[int64]{
		{delta("R"), {Rel: "nope", Delta: delta("S").Delta}}, // unknown relation
		{delta("R"), delta("T")},                             // not updatable, broadcast
		{{Rel: "R", Delta: spread}, {Rel: "S", Delta: oneS}}, // not updatable, sharded to one shard
	} {
		if err := par.ApplyDeltas(bad); err == nil {
			t.Fatalf("batch with %q accepted", bad[len(bad)-1].Rel)
		}
		if got := par.Result().String(); got != before {
			t.Fatalf("batch with %q rejected, yet it changed the result: %s vs %s", bad[len(bad)-1].Rel, got, before)
		}
	}
	good := []NamedDelta[int64]{delta("R"), {Rel: "R", Delta: spread}}
	for _, m := range []strategy[int64]{par, seq} {
		if err := m.ApplyDeltas(good); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := par.Result().String(), seq.Result().String(); got != want || got == before {
		t.Fatalf("after a good batch: parallel %s vs sequential %s (before: %s)", got, want, before)
	}
}

// TestParallelEpochOutlivesShardReuse: a Parallel's epoch is its shards'
// results reduced and sealed, and a reader holds one across batches that
// delete every key it reads and insert others — which the shards' result views
// store in the entries those keys left, key bytes and tuple cells included.
// Under the poison hook the held epoch must still read each key, its tuple and
// its payload as published: the reduction owns what it sealed.
func TestParallelEpochOutlivesShardReuse(t *testing.T) {
	q := paperQuery("A")
	par, err := NewParallel[int64](q, ring.Int{}, 3, func() (*Engine[int64], error) {
		return New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if err := par.Init(); err != nil {
		t.Fatal(err)
	}
	// groups(from, mult) joins into one result key a, with count 1, for every
	// a in [from, from+12): each relation holds the row whose values all read a.
	groups := func(from, mult int64) []NamedDelta[int64] {
		var b []NamedDelta[int64]
		for _, rd := range q.Rels {
			d := data.NewRelation[int64](ring.Int{}, rd.Schema)
			for a := from; a < from+12; a++ {
				tu := make(data.Tuple, len(rd.Schema))
				for i := range tu {
					tu[i] = data.Int(a)
				}
				d.Merge(tu, mult)
			}
			b = append(b, NamedDelta[int64]{Rel: rd.Name, Delta: d})
		}
		return b
	}
	apply := func(b []NamedDelta[int64]) {
		t.Helper()
		if err := par.ApplyDeltas(b); err != nil {
			t.Fatal(err)
		}
	}
	apply(groups(0, 1))
	held := par.Snapshot()
	defer held.Release()
	want := map[string]int64{}
	held.Result().IterateEntries(func(e *data.Entry[int64]) bool {
		want[strings.Clone(e.Key())] = e.Payload
		return true
	})
	if len(want) != 12 {
		t.Fatalf("fixture: the held epoch reads %d keys, want 12", len(want))
	}
	for round := int64(1); round <= 4; round++ {
		apply(groups(12*(round-1), -1))
		apply(groups(12*round, 1))
		n := 0
		held.Result().IterateEntries(func(e *data.Entry[int64]) bool {
			n++
			if p, ok := want[e.Key()]; !ok || p != e.Payload || string(e.Tuple.AppendKey(nil)) != e.Key() {
				t.Fatalf("round %d: the held epoch reads %v -> %d under %q", round, e.Tuple, e.Payload, e.Key())
			}
			return true
		})
		if n != len(want) {
			t.Fatalf("round %d: the held epoch reads %d keys, want %d", round, n, len(want))
		}
	}
}
