package ivm

import (
	"runtime"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ring"
)

// TestAllocGuardCycle: storage bought once stays bought. A Retailer-shaped
// cofactor engine (the paper's Fig. 7 shape: one fact relation, four
// dimensions, 43 variables) takes the whole stream, batch by batch through
// recycling scratch relations the way db.View feeds it, and then its
// retraction in the same order — the dimensions go while Inventory is full, so
// a step output is at its largest in the retract half. The first cycle buys
// tables, index buckets, slab chunks, pool lists, payload storage and the
// views' rows; from the second on a cycle allocates nothing: no table grows
// (tombstones never grow one, an index's bucket tables come back by size class
// whichever directory node serves which key), no slab opens a chunk (the
// rewind keeps them), every row a view adopts lands in the cells of an entry a
// removal gave back, and what the engine holds is the same at every top and
// every bottom.
func TestAllocGuardCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	ds := datasets.GenRetailer(datasets.RetailerConfig{Locations: 8, Dates: 12, Items: 60, ItemsPerLocDate: 30, Seed: 5})
	cf := ring.Cofactor{}
	idx := make(map[string]int)
	for i, v := range ds.Query.Vars() {
		idx[v] = i
	}
	lift := func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) }
	e, err := New[ring.Triple](ds.Query, ds.NewOrder(), cf, lift, Options[ring.Triple]{ComposeChains: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 100)
	feed := map[string]*data.Relation[ring.Triple]{}
	for _, rel := range ds.Query.RelNames() {
		rd, _ := ds.Query.Rel(rel)
		feed[rel] = data.NewRelation[ring.Triple](cf, rd.Schema)
		feed[rel].RecycleCleared()
	}
	batch := make([]NamedDelta[ring.Triple], 1)
	half := func(p ring.Triple) {
		for _, b := range stream {
			d := feed[b.Rel]
			d.Clear()
			for _, tu := range b.Tuples {
				d.Merge(tu, p)
			}
			batch[0] = NamedDelta[ring.Triple]{Rel: b.Rel, Delta: d}
			if err := e.ApplyDeltas(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	// What the engine holds, the cumulative counters aside.
	type held struct {
		pool data.PoolStats
		mem  int
	}
	holds := func() held {
		ps := e.PoolStats()
		ps.Reclaimed, ps.TuplesCopied, ps.RowsReused = 0, 0, 0
		return held{ps, e.MemoryBytes()}
	}
	cycle := func() (top, bottom held, bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		half(cf.One())
		runtime.ReadMemStats(&m1)
		bytes = m1.TotalAlloc - m0.TotalAlloc
		if e.Result().Len() != 1 {
			t.Fatalf("full database: result has %d keys", e.Result().Len())
		}
		top = holds()
		runtime.ReadMemStats(&m0)
		half(cf.Neg(cf.One()))
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		if e.Result().Len() != 0 {
			t.Fatalf("empty database: result has %d keys", e.Result().Len())
		}
		return top, holds(), bytes
	}
	// The runtime allocates on its own now and then (starting a thread, say):
	// a measured cycle runs three times, holding the same storage each time,
	// and the least it allocated is the engine's.
	least := func(c int) (top, bottom held, bytes uint64) {
		bytes = ^uint64(0)
		for run := range 3 {
			t1, b1, n := cycle()
			if run > 0 && (t1 != top || b1 != bottom) {
				t.Errorf("cycle %d holds other storage run to run:\n top    %+v\n was    %+v\n bottom %+v\n was    %+v", c, t1, top, b1, bottom)
			}
			top, bottom, bytes = t1, b1, min(bytes, n)
		}
		return top, bottom, bytes
	}
	_, _, first := cycle()
	// The retract half buys too (a dimension retracted against the full
	// Inventory is the largest step output there is): what a full cycle has
	// bought is what the second cycle holds.
	bought := e.PoolStats()
	top2, bottom2, second := least(2)
	if top2.pool.TableBytes == 0 || top2.pool.SlabChunks == 0 || bottom2.pool.Free == 0 {
		t.Fatalf("fixture: no index bucket, slab chunk or pooled entry after two cycles: %+v, %+v", top2.pool, bottom2.pool)
	}
	if second != 0 {
		t.Errorf("cycle 2 allocated %d bytes (the first: %d), want 0", second, first)
	}
	// The counters behind the rows: none bought, every one re-created in a
	// reused entry — as many as the cycles removed.
	if ps := e.PoolStats(); ps.TuplesCopied != bought.TuplesCopied || ps.RowsReused-bought.RowsReused != ps.Reclaimed-bought.Reclaimed {
		t.Errorf("cycle 2 bought %d rows and reused %d for %d it removed, want none bought and all reused",
			ps.TuplesCopied-bought.TuplesCopied, ps.RowsReused-bought.RowsReused, ps.Reclaimed-bought.Reclaimed)
	}
	for c := 3; c <= 6; c++ {
		top, bottom, bytes := least(c)
		if bytes != 0 {
			t.Errorf("cycle %d allocated %d bytes, want 0", c, bytes)
		}
		// The counters behind the zero: a table that grew would show in
		// MemoryBytes (primary tables, pool lists) or TableBytes (index
		// buckets), a chunk opened in SlabChunks and the slab bytes.
		if top != top2 || bottom != bottom2 {
			t.Errorf("cycle %d holds other storage than cycle 2:\n top    %+v\n was    %+v\n bottom %+v\n was    %+v", c, top, top2, bottom, bottom2)
		}
	}
	t.Logf("%d tuples in %d batches: first cycle %d bytes; index tables %d B, %d slab chunks, %d B of state at the top",
		ds.TotalTuples(), len(stream), first, top2.pool.TableBytes, top2.pool.SlabChunks, top2.mem)
}
