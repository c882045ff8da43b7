package data

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"fivm/internal/ring"
)

// TestMain runs the package with the poison hook on: reclaimed entries are
// scribbled and rewound key slabs overwritten, so any code that keeps storage
// past its owner's reclaim point fails the suite instead of reading garbage
// once in a while.
func TestMain(m *testing.M) {
	PoisonReclaimed(true)
	os.Exit(m.Run())
}

// tableModel checks an entryTable against a map after every step.
func checkTable(t *testing.T, tab *entryTable[int64], model map[string]*Entry[int64]) {
	t.Helper()
	if tab.len() != len(model) {
		t.Fatalf("len %d, model %d", tab.len(), len(model))
	}
	for k, e := range model {
		if got := tab.getString(hashString(k), k); got != e {
			t.Fatalf("key %q: got %p, want %p", k, got, e)
		}
	}
	seen := 0
	tab.all(func(e *Entry[int64]) bool {
		if model[e.key] != e {
			t.Fatalf("iteration yields stranger %q", e.key)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("iteration saw %d of %d", seen, len(model))
	}
}

// TestCompactInPlace churns a table at a fixed live size so that it fills
// with tombstones again and again: compaction must keep every entry
// reachable, and must not allocate.
func TestCompactInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab entryTable[int64]
	model := map[string]*Entry[int64]{}
	var live []*Entry[int64]
	add := func(i int) {
		k := Ints(int64(i)).Key()
		e := &Entry[int64]{key: k, hash: hashString(k)}
		tab.insert(e)
		model[k] = e
		live = append(live, e)
	}
	next := 0
	for ; next < 100; next++ {
		add(next)
	}
	var arrays *uint64
	compactions := 0
	for step := 0; step < 20000; step++ {
		if step == 1000 {
			// By now the table has the size it keeps: one whose load bound the
			// live entries fill less than half of.
			arrays = &tab.ctrl[0]
		}
		i := rng.Intn(len(live))
		e := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		tab.del(e)
		delete(model, e.key)
		dead := tab.dead
		add(next)
		next++
		if tab.dead < dead {
			compactions++
			checkTable(t, &tab, model)
		}
	}
	checkTable(t, &tab, model)
	if compactions < 10 {
		t.Fatalf("only %d compactions in 20000 replacements", compactions)
	}
	if arrays != &tab.ctrl[0] {
		t.Error("a table churning at constant size replaced its arrays")
	}
	// insert rehashes once live+dead slots reach the bound, so the insert
	// before may bring them to it, never past.
	if tab.dead != 0 && tab.live+tab.dead > tableMaxLoadNum*len(tab.ctrl) {
		t.Errorf("table over its load bound: live %d dead %d groups %d", tab.live, tab.dead, len(tab.ctrl))
	}
}

// TestAllocGuardTableChurn bounds deleting one entry from an entry table and
// inserting another at constant size at zero allocations.
func TestAllocGuardTableChurn(t *testing.T) {
	var tab entryTable[int64]
	es := make([]*Entry[int64], 4096)
	for i := range es {
		k := Ints(int64(i)).Key()
		es[i] = &Entry[int64]{key: k, hash: hashString(k)}
	}
	for _, e := range es[:300] {
		tab.insert(e)
	}
	i := 0
	guardZeroAllocs(t, "entryTable delete+insert at constant size", func() {
		tab.del(es[i%len(es)])
		tab.insert(es[(i+300)%len(es)])
		i++
	})
}

// TestAllocGuardIndexChurn: buckets that run empty and keys that appear go
// through the index's node freelist, bucket storage and key bytes included.
func TestAllocGuardIndexChurn(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	ir.EnsureIndex(NewSchema("A"))
	// One-tuple deltas, built once: a view that takes a key from a delta
	// relation which outlives it shares the key string, so the relation's own
	// entries cost nothing here and what is left is the index.
	plus := make([]*Relation[int64], 256)
	minus := make([]*Relation[int64], len(plus))
	for i := range plus {
		plus[i] = fromEntries[int64](ring.Int{}, ir.Schema(), Entry[int64]{Tuple: Ints(int64(i), 1), Payload: 1})
		minus[i] = plus[i].Negate()
	}
	for _, d := range plus[:32] {
		ir.MergeAllIndexed(d)
	}
	ir.Reclaim()
	i := 0
	guardZeroAllocs(t, "index bucket churn", func() {
		ir.MergeAllIndexed(minus[i%len(plus)])
		ir.Reclaim()
		ir.MergeAllIndexed(plus[(i+32)%len(plus)])
		i++
	})
	if ix := ir.EnsureIndex(NewSchema("A")); ir.Len() != 32 || ix.Len() != 32 {
		t.Fatalf("after churn: %d entries, %d buckets", ir.Len(), ix.Len())
	}
}

// TestPoolReusesOnlyAfterReclaim pins the pool's one rule.
func TestPoolReusesOnlyAfterReclaim(t *testing.T) {
	r := NewRelation[float64](ring.Float{}, NewSchema("A"))
	r.Merge(Ints(1), 5)
	r.Reclaim() // the owner has a reclaim point: pooled from here on
	e := r.lookup(Ints(1))
	keyStorage := unsafe.StringData(e.Key())
	r.Merge(Ints(1), -5)
	if r.Len() != 0 {
		t.Fatal("not removed")
	}
	// Mid-batch: the removed entry is intact and is not handed out.
	if e.Key() != Ints(1).Key() || !slices.Equal(e.Tuple, Ints(1)) {
		t.Fatalf("parked entry scribbled before the reclaim point: %q %v", e.Key(), e.Tuple)
	}
	r.Merge(Ints(2), 7)
	if e2 := r.lookup(Ints(2)); e2 == e {
		t.Fatal("entry reused in the batch that removed it")
	}
	if ps := r.PoolStats(); ps.Free != 1 || ps.Reclaimed != 0 {
		t.Fatalf("before reclaim: %+v", ps)
	}
	r.Reclaim()
	if e.Key() != strings.Repeat("\xff", len(Ints(1).Key())) || !math.IsNaN(e.Payload) {
		t.Fatalf("reclaimed entry not poisoned: %q %v", e.Key(), e.Payload)
	}
	r.Merge(Ints(3), 9)
	if e3 := r.lookup(Ints(3)); e3 != e {
		t.Fatal("reclaimed entry not reused")
	}
	if unsafe.StringData(e.Key()) != keyStorage {
		t.Fatal("reclaimed entry's key storage not reused")
	}
	if p, _ := r.Get(Ints(3)); p != 9 {
		t.Fatalf("reused entry payload = %v", p)
	}
	if ps := r.PoolStats(); ps.Free != 0 || ps.Reclaimed != 1 {
		t.Fatalf("after reuse: %+v", ps)
	}
	// A relation nobody reclaims does not pool.
	u := NewRelation[float64](ring.Float{}, NewSchema("A"))
	u.Merge(Ints(1), 5)
	u.Merge(Ints(1), -5)
	if ps := u.PoolStats(); ps.Free != 0 {
		t.Fatalf("unpooled relation parked an entry: %+v", ps)
	}
}

// sameTriple compares count and sums, enough to tell a value from its
// overwritten or poisoned storage.
func sameTriple(a, b ring.Triple) bool {
	if a.C != b.C || len(a.S) != len(b.S) {
		return false
	}
	for i := range a.S {
		if a.S[i] != b.S[i] {
			return false
		}
	}
	return true
}

func triple(vars ...int32) ring.Triple {
	k := len(vars)
	tr := ring.Triple{C: 1, Vars: vars, S: make([]float64, k), Q: make([]float64, k*k)}
	for i := range tr.S {
		tr.S[i] = float64(i + 1)
	}
	return tr
}

// TestPoolPayloadStorage: a reclaimed entry keeps its payload storage for the
// next insert; in a relation that publishes snapshots an entry a pinned epoch
// reads is retired whole — removed, or replaced on its first touch after the
// publish — and serves the writer again only after the epoch's last Release.
func TestPoolPayloadStorage(t *testing.T) {
	cf := ring.Cofactor{}
	r := NewRelation[ring.Triple](cf, NewSchema("A"))
	r.Reclaim()
	r.Merge(Ints(1), triple(0, 1, 2))
	e := r.lookup(Ints(1))
	storage := &e.Payload.S[0]
	r.Merge(Ints(1), cf.Neg(triple(0, 1, 2)))
	r.Reclaim()
	r.Merge(Ints(2), triple(0, 1, 2))
	if e2 := r.lookup(Ints(2)); e2 != e || &e2.Payload.S[0] != storage {
		t.Fatal("payload storage not reused")
	}
	if got, _ := r.Get(Ints(2)); !sameTriple(got, triple(0, 1, 2)) {
		t.Fatalf("reused storage holds %v", got)
	}

	// Published: the pinned snapshot reads the entry — key, tuple, payload
	// storage. A touch that cancels the key removes it like any deletion (the
	// copy it wrote the sum into goes back to the free list): reclaimed, the
	// entry is retired whole, and inserts take other entries while the epoch is
	// pinned.
	snap := r.Snapshot()
	r.Merge(Ints(2), cf.Neg(triple(0, 1, 2)))
	r.Reclaim()
	if &e.Payload.S[0] != storage || r.PoolStats().RowsRetired != 1 {
		t.Fatalf("a removed entry of a snapshotting relation not retired whole: %+v", r.PoolStats())
	}
	r.Merge(Ints(3), triple(0, 1, 2))
	e3 := r.lookup(Ints(3))
	if e3 == e {
		t.Fatal("an entry a pinned snapshot reads was handed to an insert")
	}
	if got, ok := snap.Get(Ints(2)); !ok || !sameTriple(got, triple(0, 1, 2)) {
		t.Fatalf("pinned snapshot changed under entry reuse: %v %v", got, ok)
	}

	// Released — by the reader and, at its next publish, by the relation —
	// the entry is free from the next sweep on and serves the next insert,
	// payload storage included.
	stale, _ := snap.Get(Ints(2))
	snap.Release()
	r.Snapshot().Release()
	if r.PoolStats(); !math.IsNaN(stale.S[0]) {
		t.Fatal("a payload kept past its snapshot's release still reads plausibly once its entry is free")
	}
	r.Merge(Ints(4), triple(0, 1, 2))
	if e4 := r.lookup(Ints(4)); e4 != e || &e4.Payload.S[0] != storage || r.PoolStats().RowsRetired != 0 {
		t.Fatal("retired entry not reused after the last release of the snapshot that read it")
	}

	// A live entry's first touch after a publish replaces it: a copy takes its
	// place and the entry the latest epoch reads retires whole. Once that epoch
	// is released, the next replacement takes it back, payload storage included.
	published := &e3.Payload.S[0]
	r.Merge(Ints(3), triple(0, 1, 2))
	if en := r.lookup(Ints(3)); en == e3 || r.PoolStats().RowsRetired != 1 {
		t.Fatalf("an entry the latest epoch reads was written in place, or not retired: %+v", r.PoolStats())
	}
	r.Snapshot().Release()
	r.Merge(Ints(3), triple(0, 1, 2))
	if en := r.lookup(Ints(3)); en != e3 || &en.Payload.S[0] != published {
		t.Fatal("a replacement did not take back the entry a released epoch gave up, payload storage included")
	}
	three := cf.Add(triple(0, 1, 2), cf.Add(triple(0, 1, 2), triple(0, 1, 2)))
	if got, _ := r.Get(Ints(3)); !sameTriple(got, three) {
		t.Fatalf("reused storage holds %v", got)
	}
}

// TestScratchKeysRewind is the written contract of RecycleCleared, and the
// deliberately broken consumer: whoever keeps a scratch relation's key past
// its next Clear reads the next batch's bytes (0xFF under the poison hook),
// while MergeAll, MergeAllIndexed, Clone and Negate copied theirs.
func TestScratchKeysRewind(t *testing.T) {
	sch := NewSchema("A", "B")
	s := NewRelation[int64](ring.Int{}, sch)
	s.RecycleCleared()
	fill := func(base int64) {
		s.Clear()
		for i := int64(0); i < 100; i++ {
			s.Merge(Ints(base+i, i), 1)
		}
	}
	fill(0)
	e0 := s.lookup(Ints(0, 0))
	kept := e0.Key() // the bug: a scratch key retained across Clear
	want := Ints(0, 0).Key()
	if kept != want {
		t.Fatalf("scratch key %q, want %q", kept, want)
	}

	plain := NewRelation[int64](ring.Int{}, sch)
	plain.MergeAll(s)
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, sch))
	ir.EnsureIndex(NewSchema("A"))
	ir.MergeAllIndexed(s)
	clone, neg := s.Clone(), s.Negate()

	slab := s.PoolStats().KeyBytes
	fill(1000)
	if kept == want {
		t.Fatal("a key retained across Clear still reads its old bytes: the slab was not rewound")
	}
	for name, r := range map[string]*Relation[int64]{"MergeAll": plain, "MergeAllIndexed": ir.Relation, "Clone": clone, "Negate": neg} {
		if r.Len() != 100 {
			t.Fatalf("%s: %d entries", name, r.Len())
		}
		r.IterateEntries(func(e *Entry[int64]) bool {
			if e.Key() != e.Tuple.Key() {
				t.Fatalf("%s kept a scratch key: %q for %v", name, e.Key(), e.Tuple)
			}
			return true
		})
		if e := r.lookupString(want); e == nil || (e.Payload != 1 && e.Payload != -1) {
			t.Fatalf("%s lost key: %v", name, e)
		}
	}
	for i := 0; i < 5; i++ {
		fill(int64(2000 + 1000*i))
	}
	if got := s.PoolStats().KeyBytes; got > 2*slab || got == 0 {
		t.Errorf("key slab grew from %d to %d bytes over same-size refills", slab, got)
	}
	if got := s.MemoryBytes(); got < s.PoolStats().KeyBytes+100*int(valueBytes) {
		t.Errorf("MemoryBytes %d does not cover slab and tuples", got)
	}
}

// TestScratchTuplesRewind is the same contract for tuples, and the same
// broken consumer: a tuple a scratch relation projected for itself lives in
// its tuple slab and reads poison (the next batch's values, in production)
// once kept across Clear, while MergeAll, MergeAllIndexed, Clone and Negate
// copied theirs — and a tuple the relation was handed is the supplier's, is
// stored as given and is copied by nobody.
func TestScratchTuplesRewind(t *testing.T) {
	from, sch := NewSchema("X", "A", "B"), NewSchema("B", "A")
	proj := MustProjector(from, sch) // not a prefix: nothing to share
	if proj.IsPrefix() || !MustProjector(from, NewSchema("X", "A")).IsPrefix() {
		t.Fatal("IsPrefix")
	}
	s := NewRelation[int64](ring.Int{}, sch)
	s.RecycleCleared()
	var acc int64 = 1
	fill := func(base int64) {
		s.Clear()
		for i := int64(0); i < 100; i++ {
			src := Ints(7, base+i, i)
			if i%2 == 0 {
				s.MergeProjected(proj, src, 1)
			} else {
				s.MergeMulProjected(proj, src, &acc, &acc)
			}
		}
	}
	fill(0)
	if !s.VolatileTuples() {
		t.Fatal("a scratch relation that projected reports durable tuples")
	}
	e0 := s.lookup(Ints(5, 5))
	kept := e0.Tuple // the bug: a slab tuple retained across Clear
	if !slices.Equal(kept, Ints(5, 5)) {
		t.Fatalf("projected tuple %v", kept)
	}

	plain := NewRelation[int64](ring.Int{}, sch)
	plain.MergeAll(s)
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, sch))
	ir.EnsureIndex(NewSchema("A"))
	ir.MergeAllIndexed(s)
	scratch := NewRelation[int64](ring.Int{}, sch)
	scratch.RecycleCleared()
	scratch.MergeAll(s) // copies into its own slab, and says so
	if !scratch.VolatileTuples() {
		t.Fatal("a scratch relation that adopted slab tuples reports durable tuples")
	}
	fromScratch := scratch.Clone()
	clone, neg := s.Clone(), s.Negate()

	slab := s.PoolStats().TupleBytes
	if slab < 200*valueBytes {
		t.Fatalf("tuple slab of %d bytes under 100 two-column tuples", slab)
	}
	fill(1000)
	scratch.Clear()
	if slices.Equal(kept, Ints(5, 5)) {
		t.Fatal("a tuple retained across Clear still reads its old values: the slab was not rewound")
	}
	for name, r := range map[string]*Relation[int64]{"MergeAll": plain, "MergeAllIndexed": ir.Relation,
		"Clone": clone, "Negate": neg, "Clone of a scratch adopter": fromScratch} {
		if r.Len() != 100 {
			t.Fatalf("%s: %d entries", name, r.Len())
		}
		r.IterateEntries(func(e *Entry[int64]) bool {
			if e.Key() != e.Tuple.Key() {
				t.Fatalf("%s kept a slab tuple: %v under key %q", name, e.Tuple, e.Key())
			}
			return true
		})
	}
	for i := 0; i < 5; i++ {
		fill(int64(2000 + 1000*i))
	}
	if got := s.PoolStats().TupleBytes; got > 2*slab {
		t.Errorf("tuple slab grew from %d to %d bytes over same-size refills", slab, got)
	}

	// Handed tuples: stored as given, shared by consumers, never in the slab.
	h := NewRelation[int64](ring.Int{}, sch)
	h.RecycleCleared()
	given := Ints(1, 2)
	h.Merge(given, 1)
	h.mergeKeyed([]byte(Ints(3, 4).Key()), hashString(Ints(3, 4).Key()), Ints(3, 4), false, 1)
	taker := NewRelation[int64](ring.Int{}, sch)
	taker.MergeAll(h)
	he := h.lookup(given)
	te := taker.lookup(given)
	if &he.Tuple[0] != &given[0] || &te.Tuple[0] != &given[0] {
		t.Error("a handed tuple was copied")
	}
	if h.VolatileTuples() || h.PoolStats().TupleBytes != 0 {
		t.Errorf("handed tuples touched the slab: %+v", h.PoolStats())
	}

	// Sharing: prefix subslices of the source, no slab; anything else panics.
	sh := NewRelation[int64](ring.Int{}, NewSchema("X", "A"))
	sh.RecycleCleared()
	sh.ShareProjectedTuples(true)
	src := Ints(7, 8, 9)
	sh.MergeProjected(MustProjector(from, sh.Schema()), src, 1)
	se := sh.lookup(Ints(7, 8))
	if &se.Tuple[0] != &src[0] || cap(se.Tuple) != 2 || sh.VolatileTuples() {
		t.Errorf("shared projection %v (cap %d), volatile %v", se.Tuple, cap(se.Tuple), sh.VolatileTuples())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SharedApply of a non-prefix projection did not panic")
			}
		}()
		proj.SharedApply(src)
	}()
}

// TestRecycledKeysDieAtReclaim is the same contract for the key bytes an entry
// owns, and the same broken consumer: a key string kept from a pooled relation
// that publishes nothing — an internal view, a base-store relation — reads
// poison (the next key the entry holds, in production) past the owner's
// reclaim point, while MergeAll, MergeAllIndexed, Clone and Negate copied
// theirs and a snapshotting relation never reuses the bytes its pinned
// epochs read.
func TestRecycledKeysDieAtReclaim(t *testing.T) {
	sch := NewSchema("A", "B")
	tups := make([]Tuple, 100)
	for i := range tups {
		tups[i] = Tuple{Int(int64(i)), String("k")}
	}
	view := NewRelation[int64](ring.Int{}, sch)
	view.Reclaim() // pooled, as ivm.Engine has every view from its first batch on
	store := NewBaseStore()
	if err := store.Register("R", sch); err != nil {
		t.Fatal(err)
	}
	for _, tup := range tups {
		view.Merge(tup, 1)
	}
	if err := store.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: tups}}); err != nil {
		t.Fatal(err)
	}
	want := tups[5].Key()
	ve := view.lookupString(want)
	be := store.Base("R").lookupString(want)
	keptView, keptBase := ve.Key(), be.Key() // the bug: entry keys retained across the reclaim point
	if keptView != want || keptBase != want {
		t.Fatalf("keys %q and %q, want %q", keptView, keptBase, want)
	}

	plain := NewRelation[int64](ring.Int{}, sch)
	plain.MergeAll(view)
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, sch))
	ir.EnsureIndex(NewSchema("A"))
	ir.MergeAllIndexed(view)
	clone, neg := view.Clone(), view.Negate()
	root := NewRelation[int64](ring.Int{}, sch)
	root.Reclaim()
	root.MergeAll(view)
	pinned := root.Snapshot()
	defer pinned.Release()

	// Every row goes, every owner passes its reclaim point, and other rows
	// take the entries over.
	other := make([]Tuple, len(tups))
	for i := range other {
		other[i] = Tuple{Int(int64(1000 + i)), String("o")}
	}
	for _, r := range []*Relation[int64]{view, root} {
		r.MergeAll(neg)
		r.Reclaim()
		// The view can reuse every row; the root's pinned epoch reads all of
		// them, so only the copy each cancelling touch took, and gave back, is
		// free, with its own key bytes.
		ps := r.PoolStats()
		if r == view && (ps.Free != len(tups) || ps.KeyBytes == 0) ||
			r == root && (ps.RowsRetired != len(tups) || ps.Free != len(tups)+1 || ps.KeyBytes != keyCap(len(want))) {
			t.Fatalf("pool after emptying (publishes: %v): %+v", r != view, ps)
		}
		for _, tup := range other {
			r.Merge(tup, 1)
		}
	}
	if err := store.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: tups, Mult: -1}, {Rel: "R", Tuples: other}}); err != nil {
		t.Fatal(err)
	}
	if keptView == want || keptBase == want {
		t.Fatalf("keys retained across the reclaim point still read their old bytes: %q, %q", keptView, keptBase)
	}
	for name, r := range map[string]*Relation[int64]{"MergeAll": plain, "MergeAllIndexed": ir.Relation,
		"Clone": clone, "Negate": neg, "the reusing view": view, "the base store": store.Base("R")} {
		if r.Len() != len(tups) {
			t.Fatalf("%s: %d entries", name, r.Len())
		}
		r.IterateEntries(func(e *Entry[int64]) bool {
			if e.Key() != e.Tuple.Key() {
				t.Fatalf("%s holds another relation's key bytes: %q for %v", name, e.Key(), e.Tuple)
			}
			return true
		})
	}
	if pinned.Len() != len(tups) {
		t.Fatalf("pinned epoch: %d entries", pinned.Len())
	}
	pinned.IterateEntries(func(e *Entry[int64]) bool {
		if e.Key() != e.Tuple.Key() {
			t.Fatalf("pinned epoch reads reused key bytes: %q for %v", e.Key(), e.Tuple)
		}
		return true
	})
	if p, ok := pinned.Get(tups[5]); !ok || p != 1 {
		t.Fatalf("pinned epoch lost %v: %v %v", tups[5], p, ok)
	}
}

// TestAllocGuardProjectedRefill: a scratch relation refilled through each of
// the two projecting merges, with a projector that is no prefix, allocates
// nothing once its slabs have their size (the first refill grows them, the
// Clear after it makes them one chunk each).
func TestAllocGuardProjectedRefill(t *testing.T) {
	from := NewSchema("X", "A", "B")
	proj := MustProjector(from, NewSchema("B", "A"))
	srcs := make([]Tuple, 300)
	for i := range srcs {
		srcs[i] = Tuple{Int(1), String("group-" + string(rune('a'+i%26))), Int(int64(i))}
	}
	one := 1.0
	for name, merge := range map[string]func(s *Relation[float64], i int){
		"MergeProjected":    func(s *Relation[float64], i int) { s.MergeProjected(proj, srcs[i], 1) },
		"MergeMulProjected": func(s *Relation[float64], i int) { s.MergeMulProjected(proj, srcs[i], &one, &one) },
	} {
		s := NewRelation[float64](ring.Float{}, NewSchema("B", "A"))
		s.RecycleCleared()
		refill := func() {
			s.Clear()
			for i := range srcs {
				merge(s, i)
			}
		}
		refill()
		refill()
		guardZeroAllocs(t, "scratch Clear+"+name+" refill", refill)
		if s.Len() != len(srcs) || s.PoolStats().TupleBytes < 2*len(srcs)*valueBytes {
			t.Fatalf("%s: %d entries, pool %+v", name, s.Len(), s.PoolStats())
		}
	}
}

// TestAllocGuardScratchRefill: refilling a scratch relation allocates
// nothing — entries, keys and mutable payload storage all come back.
func TestAllocGuardScratchRefill(t *testing.T) {
	cf := ring.Cofactor{}
	s := NewRelation[ring.Triple](cf, NewSchema("A", "B"))
	s.RecycleCleared()
	tups := make([]Tuple, 200)
	for i := range tups {
		tups[i] = Ints(int64(i), int64(i%7))
	}
	p := triple(0, 1, 2)
	guardZeroAllocs(t, "scratch Clear+refill", func() {
		s.Clear()
		for _, tup := range tups {
			s.Merge(tup, p)
		}
	})
}

// TestAllocGuardMergeFromCachedKey: merging a same-schema delta into an
// indexed view probes with the key and hash the source entries carry, and
// adds each entry-resident payload — a number, or a warmed cofactor triple
// passed by its header — in place.
func TestAllocGuardMergeFromCachedKey(t *testing.T) {
	cf := ring.Cofactor{}
	mergeFromCachedKey[float64](t, ring.Float{}, 1)
	mergeFromCachedKey[ring.Triple](t, cf, cf.Mul(ring.LiftValue(0, 2), cf.Mul(ring.LiftValue(1, 3), ring.LiftValue(2, 4))))
}

func mergeFromCachedKey[P any](t *testing.T, r ring.Ring[P], p P) {
	t.Helper()
	sch := NewSchema("A", "B")
	ir := NewIndexedRelation(NewRelation(r, sch))
	ir.EnsureIndex(NewSchema("A"))
	delta := NewRelation(r, sch)
	for i := 0; i < 200; i++ {
		delta.Merge(Ints(int64(i%20), int64(i)), p)
	}
	ir.MergeAllIndexed(delta)
	guardZeroAllocs(t, "MergeAllIndexed onto existing keys", func() { ir.MergeAllIndexed(delta) })
}

func TestMemoryBytesCountsPool(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Reclaim()
	for i := int64(0); i < 1000; i++ {
		r.Merge(Ints(i), 1)
	}
	full := r.MemoryBytes()
	if min := 1000 * (valueBytes + 9); full < min {
		t.Fatalf("MemoryBytes %d < %d for 1000 one-column tuples", full, min)
	}
	for i := int64(0); i < 1000; i++ {
		r.Merge(Ints(i), -1)
	}
	r.Reclaim()
	if ps := r.PoolStats(); ps.Free != 1000 || ps.Reclaimed != 1000 {
		t.Fatalf("pool after emptying: %+v", ps)
	}
	// The pool shows: entry structs, the key bytes and the cells they keep for
	// the next rows — the relation holds all it held full beside its pool list.
	lists := 8 * cap(r.pool)
	if empty := r.MemoryBytes() - lists; empty != full || r.PoolStats().TupleBytes < 1000*valueBytes {
		t.Errorf("emptied relation reports %d bytes beside its pool lists, want %d as full; pool %+v", empty, full, r.PoolStats())
	}
	if ps := r.PoolStats(); ps.KeyBytes != 1000*keyCap(9) {
		t.Errorf("free entries hold %d key bytes, want %d", ps.KeyBytes, 1000*keyCap(9))
	}

	// A scratch relation charges the tuples it projected once, through the
	// slab's capacity: a second relation holding the same entries with handed
	// tuples costs the slab less and a tuple per entry more.
	proj := MustProjector(NewSchema("A", "B"), NewSchema("B", "A"))
	slabbed, handed := NewRelation[int64](ring.Int{}, NewSchema("B", "A")), NewRelation[int64](ring.Int{}, NewSchema("B", "A"))
	slabbed.RecycleCleared()
	handed.RecycleCleared()
	for i := int64(0); i < 1000; i++ {
		slabbed.MergeProjected(proj, Ints(i, 1), 1)
		handed.Merge(Ints(1, i), 1)
	}
	ps := slabbed.PoolStats()
	if ps.TupleBytes < 2000*valueBytes || handed.PoolStats().TupleBytes != 0 {
		t.Fatalf("tuple slabs: %+v, %+v", ps, handed.PoolStats())
	}
	if got, want := slabbed.MemoryBytes()-ps.TupleBytes, handed.MemoryBytes()-2000*valueBytes; got != want {
		t.Errorf("MemoryBytes less the slab = %d, with handed tuples less the tuples = %d: slab tuples are charged twice, or not at all", got, want)
	}
}
