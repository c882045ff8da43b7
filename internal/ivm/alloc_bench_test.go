package ivm

import (
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ring"
)

// benchEngine builds the paper-query engine preloaded with random contents,
// plus a fixed set of single-tuple deltas to replay.
func benchEngine(b *testing.B) (*Engine[int64], []*data.Relation[int64]) {
	b.Helper()
	q := paperQuery()
	rng := rand.New(rand.NewSource(99))
	e, err := New[int64](q, paperOrder(), ring.Int{}, countLift, Options[int64]{})
	if err != nil {
		b.Fatal(err)
	}
	for _, rd := range q.Rels {
		if err := e.Load(rd.Name, randomDelta(rng, rd.Schema, 16, 400)); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Init(); err != nil {
		b.Fatal(err)
	}
	rd, _ := q.Rel("S")
	deltas := make([]*data.Relation[int64], 64)
	for i := range deltas {
		deltas[i] = randomDelta(rng, rd.Schema, 16, 1)
	}
	return e, deltas
}

// BenchmarkApplyDelta measures single-tuple delta propagation through the
// F-IVM view tree: the paper's per-update hot path.
func BenchmarkApplyDelta(b *testing.B) {
	e, deltas := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.ApplyDelta("S", deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDeltas measures the batched path: 8 single-tuple updates to
// one relation coalesce into one leaf-to-root traversal. Reported per batch;
// divide by 8 for per-update cost.
func BenchmarkApplyDeltas(b *testing.B) {
	e, deltas := benchEngine(b)
	batch := make([]NamedDelta[int64], 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = NamedDelta[int64]{Rel: "S", Delta: deltas[(i*8+j)%len(deltas)]}
		}
		if err := e.ApplyDeltas(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyDeltaSteady measures steady-state F-IVM delta application end
// to end on a small retailer instance under the cofactor ring: the full
// stream is applied once to warm the view tree, then each iteration applies
// one pre-built insert batch followed by its negation, so every touched key
// already exists (payloads oscillate between their warm value and warm+delta,
// never cancelling to zero) and the measured work is pure delta propagation
// at constant state size. One op covers the two ApplyDelta calls; it must
// read 0 allocs/op.
func BenchmarkApplyDeltaSteady(b *testing.B) {
	ds := datasets.GenRetailer(datasets.RetailerConfig{
		Locations: 6, Dates: 12, Items: 48, ItemsPerLocDate: 6, Seed: 9,
	})
	cf := ring.Cofactor{}
	idx := make(map[string]int)
	for i, v := range ds.Query.Vars() {
		idx[v] = i
	}
	lift := func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) }
	m, err := New[ring.Triple](ds.Query, ds.NewOrder(), cf, lift, Options[ring.Triple]{ComposeChains: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Init(); err != nil {
		b.Fatal(err)
	}
	toDelta := func(batch datasets.Batch) *data.Relation[ring.Triple] {
		rd, _ := ds.Query.Rel(batch.Rel)
		d := data.NewRelation[ring.Triple](cf, rd.Schema)
		for _, t := range batch.Tuples {
			d.Merge(t, cf.One())
		}
		return d
	}
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 200)
	for _, batch := range stream {
		if err := m.ApplyDelta(batch.Rel, toDelta(batch)); err != nil {
			b.Fatal(err)
		}
	}
	d := toDelta(stream[0])
	nd := d.Negate()
	rel := stream[0].Rel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ApplyDelta(rel, d); err != nil {
			b.Fatal(err)
		}
		if err := m.ApplyDelta(rel, nd); err != nil {
			b.Fatal(err)
		}
	}
}
