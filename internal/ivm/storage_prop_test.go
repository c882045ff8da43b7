package ivm

import (
	"math/rand"
	"runtime"
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// These tests pin the storage contract the swiss-table relation backend
// must honor: every maintenance strategy (F-IVM, 1-IVM, DBT, RE-EVAL) over
// every ring stores byte-identical results — same serialized keys, same
// payloads — no matter how its relations hash, probe, grow, or tombstone
// internally, including under 8-way sharding and across snapshot epochs.
// They double as the regression net for future storage-layer changes: run
// them under -race before trusting a new backend.

// dumpResult canonicalizes a maintained result: serialized key -> payload,
// zero payloads dropped (a strategy is free to keep or evict vanished keys).
func dumpResult[P any](r *data.Relation[P], rg ring.Ring[P]) map[string]P {
	out := map[string]P{}
	r.Iterate(func(tup data.Tuple, p P) bool {
		if !rg.IsZero(p) {
			out[string(tup.AppendKey(nil))] = p
		}
		return true
	})
	return out
}

// dumpSnapshot canonicalizes a published snapshot result the same way.
func dumpSnapshot[P any](s *data.RelationSnapshot[P], rg ring.Ring[P]) map[string]P {
	out := map[string]P{}
	s.Iterate(func(tup data.Tuple, p P) bool {
		if !rg.IsZero(p) {
			out[string(tup.AppendKey(nil))] = p
		}
		return true
	})
	return out
}

func sameDump[P any](a, b map[string]P, eq func(a, b P) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !eq(av, bv) {
			return false
		}
	}
	return true
}

// storageStrategies builds one maintainer per strategy family, all over the
// paper query. The parallel entry wraps the factored engine in an 8-shard
// Parallel regardless of GOMAXPROCS — the scheduling cap must not change
// results.
func storageStrategies[P any](t *testing.T, rg ring.Ring[P], lift data.LiftFunc[P]) (names []string, ms []Maintainer[P]) {
	t.Helper()
	q := paperQuery()
	add := func(name string, m Maintainer[P], err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Init(); err != nil {
			t.Fatalf("%s init: %v", name, err)
		}
		m.Snapshot() // enable epoch publication from the start
		names = append(names, name)
		ms = append(ms, m)
	}

	e, err := New[P](q, paperOrder(), rg, lift, Options[P]{})
	add("F-IVM", e, err)
	fo, err := NewFirstOrder[P](q, paperOrder(), rg, lift)
	add("1-IVM", fo, err)
	rec, err := NewRecursive[P](q, rg, lift, nil)
	add("DBT", rec, err)
	add("RE-EVAL", NewNaiveReEval[P](q, rg, lift), nil)
	par, err := NewParallel[P](q, rg, 8, func() (Maintainer[P], error) {
		return New[P](q, paperOrder(), rg, lift, Options[P]{})
	})
	add("F-IVM x8", par, err)
	return names, ms
}

// driveStorageProperty streams random mixed insert/delete batches through
// every strategy and checks after each round that live results and
// published snapshots agree byte-for-byte, and that a snapshot pinned early
// still serves its original contents at the end (epoch stability while the
// writer churns and recycles chunks underneath it).
func driveStorageProperty[P any](t *testing.T, rg ring.Ring[P], lift data.LiftFunc[P],
	toP func(*data.Relation[int64]) *data.Relation[P], eq func(a, b P) bool, seed int64) {
	t.Helper()
	q := paperQuery()
	rng := rand.New(rand.NewSource(seed))
	names, ms := storageStrategies[P](t, rg, lift)

	var history []NamedDelta[P] // for later deletion via negation
	var pinned *data.RelationSnapshot[P]
	var pinnedWant map[string]P

	for round := 0; round < 24; round++ {
		var batch []NamedDelta[P]
		if len(history) > 0 && rng.Intn(3) == 0 {
			// Delete a past batch entry: additively inverted payloads.
			h := history[rng.Intn(len(history))]
			batch = append(batch, NamedDelta[P]{Rel: h.Rel, Delta: h.Delta.Negate()})
		}
		for _, rel := range q.RelNames() {
			if rng.Intn(2) == 0 {
				continue
			}
			rd, _ := q.Rel(rel)
			d := toP(randomDelta(rng, rd.Schema, 4, 1+rng.Intn(6)))
			batch = append(batch, NamedDelta[P]{Rel: rel, Delta: d})
			history = append(history, NamedDelta[P]{Rel: rel, Delta: d})
		}
		if len(batch) == 0 {
			continue
		}
		for i, m := range ms {
			if err := m.ApplyDeltas(batch); err != nil {
				t.Fatalf("round %d %s: %v", round, names[i], err)
			}
			checkViewTuples(t, names[i], m)
		}

		want := dumpResult(ms[0].Result(), rg)
		for i, m := range ms[1:] {
			got := dumpResult(m.Result(), rg)
			if !sameDump(want, got, eq) {
				t.Fatalf("round %d: %s result diverged from %s (%d vs %d keys)",
					round, names[i+1], names[0], len(got), len(want))
			}
		}
		for i, m := range ms {
			snap := dumpSnapshot(m.Snapshot().Result(), rg)
			if !sameDump(want, snap, eq) {
				t.Fatalf("round %d: %s snapshot diverged from live result", round, names[i])
			}
		}
		if pinned == nil && round >= 7 {
			pinned = ms[0].Snapshot().Result()
			pinnedWant = want
		}
	}

	if pinned == nil {
		t.Fatal("stream too short to pin a snapshot")
	}
	if got := dumpSnapshot(pinned, rg); !sameDump(pinnedWant, got, eq) {
		t.Fatalf("pinned snapshot mutated while writer advanced: %d vs %d keys", len(got), len(pinnedWant))
	}
}

func TestStorageDropInIntRing(t *testing.T) {
	ident := func(d *data.Relation[int64]) *data.Relation[int64] { return d }
	driveStorageProperty[int64](t, ring.Int{}, valueLift, ident, eqInt, 61)
}

func TestStorageDropInCofactorRing(t *testing.T) {
	q := paperQuery()
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	cf := ring.Cofactor{}
	lift := func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) }
	toTriple := func(d *data.Relation[int64]) *data.Relation[ring.Triple] {
		out := data.NewRelation[ring.Triple](cf, d.Schema())
		d.Iterate(func(tup data.Tuple, m int64) bool {
			p := cf.Zero()
			for k := int64(0); k < m; k++ {
				p = cf.Add(p, cf.One())
			}
			for k := int64(0); k > m; k-- {
				p = cf.Add(p, cf.Neg(cf.One()))
			}
			out.Merge(tup, p)
			return true
		})
		return out
	}
	eqTriple := func(a, b ring.Triple) bool { return cf.IsZero(cf.Add(a, cf.Neg(b))) }
	driveStorageProperty[ring.Triple](t, cf, lift, toTriple, eqTriple, 62)
}

// TestParallelDispatchUnderGOMAXPROCSCap pins the scheduling/layout split:
// an 8-shard parallel engine constructed while GOMAXPROCS is capped at 2
// keeps all 8 shards (data layout is config, not hardware) but gates
// in-flight shard work to the cap at Apply time — and produces the same
// bytes as every sequential strategy.
func TestParallelDispatchUnderGOMAXPROCSCap(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	ident := func(d *data.Relation[int64]) *data.Relation[int64] { return d }
	driveStorageProperty[int64](t, ring.Int{}, valueLift, ident, eqInt, 63)
}
