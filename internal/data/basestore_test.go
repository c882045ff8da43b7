package data

import (
	"errors"
	"fmt"
	"iter"
	"testing"

	"fivm/internal/ring"
)

func bsTuple(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Int(v)
	}
	return t
}

func TestBaseStoreApplyAndObserve(t *testing.T) {
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("S", NewSchema("B", "C")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("R", NewSchema("A", "B")); err == nil {
		t.Fatal("duplicate Register should fail")
	}

	var sawR, sawAll int
	s.Attach("onlyR", []string{"R"}, func(batch []BaseUpdate) error {
		for _, u := range batch {
			if u.Rel != "R" {
				t.Errorf("onlyR observer saw %q", u.Rel)
			}
			sawR += len(u.Tuples)
		}
		return nil
	})
	s.Attach("all", nil, func(batch []BaseUpdate) error {
		for _, u := range batch {
			sawAll += len(u.Tuples)
		}
		return nil
	})

	err := s.ApplyBatch([]BaseUpdate{
		{Rel: "R", Tuples: []Tuple{bsTuple(1, 2), bsTuple(3, 4), bsTuple(3, 4)}},
		{Rel: "S", Tuples: []Tuple{bsTuple(2, 5)}, Mult: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawR != 3 || sawAll != 4 {
		t.Errorf("observers saw R=%d all=%d, want 3 and 4", sawR, sawAll)
	}
	// The duplicate insert bumped the row in place.
	if got, _ := s.Base("R").Get(bsTuple(3, 4)); got != 2 {
		t.Errorf("R[3,4] = %d, want 2", got)
	}

	// Deletion drives multiplicity to zero and drops the row.
	if err := s.ApplyBatch([]BaseUpdate{
		{Rel: "R", Tuples: []Tuple{bsTuple(1, 2)}, Mult: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if s.Base("R").Contains(bsTuple(1, 2)) {
		t.Error("deleted key still present")
	}
	if s.Tuples() != 2 {
		t.Errorf("Tuples() = %d, want 2", s.Tuples())
	}

	// Detach stops delivery.
	s.Detach("onlyR")
	before := sawR
	if err := s.ApplyBatch([]BaseUpdate{
		{Rel: "R", Tuples: []Tuple{bsTuple(7, 7)}},
	}); err != nil {
		t.Fatal(err)
	}
	if sawR != before {
		t.Error("detached observer still delivered")
	}
	if got := s.Observers(); len(got) != 1 || got[0] != "all" {
		t.Errorf("observers = %v", got)
	}
}

func TestBaseStoreErrors(t *testing.T) {
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A")); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "Z", Tuples: []Tuple{bsTuple(1)}}}); err == nil {
		t.Error("unknown relation should fail")
	}
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: []Tuple{bsTuple(1, 2)}}}); err == nil {
		t.Error("arity mismatch should fail")
	}

	boom := errors.New("boom")
	s.Attach("bad", nil, func([]BaseUpdate) error { return boom })
	err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: []Tuple{bsTuple(1)}}})
	if !errors.Is(err, boom) {
		t.Errorf("observer error not propagated: %v", err)
	}
}

// slideWindow applies one step of a sliding window over R(A,B): insert the
// 100 rows after hi, delete the 100 oldest.
func slideWindow(t *testing.T, s *BaseStore, lo, hi *int64) {
	t.Helper()
	ins, del := make([]Tuple, 100), make([]Tuple, 100)
	for i := range ins {
		ins[i], del[i] = bsTuple(*hi+int64(i), 7), bsTuple(*lo+int64(i), 7)
	}
	*hi, *lo = *hi+100, *lo+100
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: ins}, {Rel: "R", Tuples: del, Mult: -1}}); err != nil {
		t.Fatal(err)
	}
}

// TestBaseStoreMemoryFollowsState: a window of 1000 live rows sliding over
// fifty times its size leaves the store where two window lengths left it —
// its memory is a function of the live rows, not of the batches applied.
func TestBaseStoreMemoryFollowsState(t *testing.T) {
	const live = 1000
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A", "B")); err != nil {
		t.Fatal(err)
	}
	var lo, hi int64
	for hi < live {
		ins := make([]Tuple, 100)
		for i := range ins {
			ins[i] = bsTuple(hi+int64(i), 7)
		}
		hi += 100
		if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: ins}}); err != nil {
			t.Fatal(err)
		}
	}
	for hi < 3*live {
		slideWindow(t, s, &lo, &hi)
	}
	mem, pool := s.MemoryBytes(), s.Base("R").PoolStats()
	for hi < 51*live {
		slideWindow(t, s, &lo, &hi)
	}
	if got := s.Base("R").Len(); got != live {
		t.Fatalf("%d live rows, want %d", got, live)
	}
	if got := s.MemoryBytes(); got > mem+mem/8 {
		t.Errorf("MemoryBytes grew from %d to %d over 48 more window lengths", mem, got)
	}
	got := s.Base("R").PoolStats()
	if got.Free > pool.Free+100 || got.KeyBytes > pool.KeyBytes+100*keyCap(18) {
		t.Errorf("pool grew from %+v to %+v", pool, got)
	}
	// The rows' tuples are the store's own and counted: cells for every live
	// and every pooled row, taken while the pool was cold and reused since.
	rowBytes := 2 * valueBytes
	if got.TupleBytes != pool.TupleBytes || got.TupleBytes < (live+got.Free)*rowBytes {
		t.Errorf("tuple storage went from %d to %d bytes for %d live and %d pooled rows", pool.TupleBytes, got.TupleBytes, live, got.Free)
	}
	st := s.Stats("R")
	if st.Tuples != live || st.MemoryBytes != s.Base("R").MemoryBytes() || st.Reclaimed < 50*live {
		t.Errorf("Stats %+v: want %d tuples, the walked %d bytes, every deleted row through the pool", st, live, s.Base("R").MemoryBytes())
	}
	if st.FreeTupleBytes(2) != st.PoolFree*rowBytes || st.MemoryBytes < got.TupleBytes {
		t.Errorf("Stats %+v: recycled tuple bytes %d for %d pooled rows, %d bytes of tuple slab uncharged", st, st.FreeTupleBytes(2), st.PoolFree, got.TupleBytes)
	}
}

// TestBaseStoreOwnsItsTuples: the store keeps no tuple it is handed. A caller
// that overwrites its tuples after ApplyBatch — a heap batch, or an arena
// rewound (and poisoned) — changes nothing in the store or in a view fed from
// the conversion scratch; and the cells of a deleted row serve the next
// insert.
func TestBaseStoreOwnsItsTuples(t *testing.T) {
	sch := NewSchema("A", "B")
	s := NewBaseStore()
	if err := s.Register("R", sch); err != nil {
		t.Fatal(err)
	}
	delta := NewRelation[float64](ring.Float{}, sch)
	delta.RecycleCleared()
	view := NewRelation[float64](ring.Float{}, sch)
	s.Attach("view", nil, func(batch []BaseUpdate) error {
		delta.Clear()
		for _, u := range batch {
			MergeUpdate(delta, u, float64(u.Mult))
		}
		view.MergeAll(delta)
		return nil
	})
	check := func(what string, want int) {
		t.Helper()
		for name, n := range map[string]int{"store": s.Base("R").Len(), "view": view.Len()} {
			if n != want {
				t.Fatalf("%s: the %s holds %d rows, want %d", what, name, n, want)
			}
		}
		ok := func(name string) func(tu Tuple, key string) {
			return func(tu Tuple, key string) {
				if string(tu.AppendKey(nil)) != key {
					t.Fatalf("%s: the %s holds tuple %v under key %q", what, name, tu, key)
				}
			}
		}
		s.Base("R").IterateEntries(func(e *Entry[int64]) bool { ok("store")(e.Tuple, e.Key()); return true })
		view.IterateEntries(func(e *Entry[float64]) bool { ok("view")(e.Tuple, e.Key()); return true })
	}

	// A heap batch whose caller scribbles over its tuples afterwards. The
	// view shares a heap batch's tuples by contract, so only the store is
	// checked against that caller.
	hs := NewBaseStore()
	hs.Register("R", sch)
	heap := []Tuple{bsTuple(1, 10), bsTuple(2, 20)}
	if err := hs.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: heap}}); err != nil {
		t.Fatal(err)
	}
	for _, tu := range heap {
		tu[0], tu[1] = String("scribbled"), Int(-1)
	}
	if e, _ := hs.Base("R").EntryKey(bsTuple(1, 10).Key()); e == nil || e.Tuple[0] != Int(1) {
		t.Fatal("the store kept the tuple it was handed")
	}

	// Arena batches, rewound after every ApplyBatch.
	var arena BatchArena
	apply := func(mult int64, rows ...[2]int64) []Tuple {
		ts := arena.Tuples(len(rows))
		for _, r := range rows {
			tu := arena.Tuple(2)
			tu[0], tu[1] = Int(r[0]), Int(r[1])
			ts = append(ts, tu)
		}
		batch := append(arena.Updates(1), arena.Update("R", mult, ts))
		if ArenaBytes(batch) != arena.Bytes() || arena.Bytes() < len(rows)*2*valueBytes {
			t.Fatalf("arena of %d bytes behind a batch reporting %d", arena.Bytes(), ArenaBytes(batch))
		}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if !delta.VolatileTuples() {
			t.Fatal("the conversion scratch does not report an arena batch volatile")
		}
		arena.Rewind()
		return ts
	}
	kept := apply(1, [2]int64{3, 30}, [2]int64{4, 40})
	if kept[0][0] != poisonTuple[0] {
		t.Fatalf("a tuple kept from a rewound arena reads %v, not poison", kept[0])
	}
	check("after two arena inserts", 2)

	// The cells of a deleted row serve the next insert.
	e, _ := s.Base("R").EntryKey(bsTuple(3, 30).Key())
	cells := &e.Tuple[0]
	apply(-1, [2]int64{3, 30})
	apply(1, [2]int64{5, 50})
	if e, _ := s.Base("R").EntryKey(bsTuple(5, 50).Key()); e == nil || &e.Tuple[0] != cells {
		t.Fatal("the insert after a delete did not reuse the deleted row's tuple cells")
	}
	check("after the swap", 2)
	if view.PoolStats().TuplesCopied < 3 {
		t.Fatalf("the view counts %d copied tuples after adopting 3 arena rows", view.PoolStats().TuplesCopied)
	}
}

// TestAllocGuardBaseStoreChurn: an insert batch and its retraction, observed
// by a consumer that lifts them into a scratch delta by the store's keys,
// allocate nothing once the pools are warm.
func TestAllocGuardBaseStoreChurn(t *testing.T) {
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A", "B")); err != nil {
		t.Fatal(err)
	}
	delta := NewRelation[float64](ring.Float{}, NewSchema("A", "B"))
	delta.RecycleCleared()
	s.Attach("view", []string{"R"}, func(batch []BaseUpdate) error {
		delta.Clear()
		for _, u := range batch {
			MergeUpdate(delta, u, float64(u.Mult))
		}
		return nil
	})
	tups := make([]Tuple, 100)
	for i := range tups {
		tups[i] = Tuple{Int(int64(i)), String("row")}
	}
	ins, del := []BaseUpdate{{Rel: "R", Tuples: tups, Mult: 1}}, []BaseUpdate{{Rel: "R", Tuples: tups, Mult: -1}}
	guardZeroAllocs(t, "insert batch + retraction", func() {
		if s.ApplyBatch(ins) != nil || s.ApplyBatch(del) != nil {
			t.Fatal("ApplyBatch failed")
		}
	})
	if s.Tuples() != 0 || delta.Len() != len(tups) {
		t.Fatalf("%d rows left, delta of %d", s.Tuples(), delta.Len())
	}
}

// churnedStore is a store whose R(A,B,C) — an int, a float and a string
// column — holds the survivors of 4 000 inserts after every third was
// deleted again, so its table has tombstones, and the model of what it holds.
func churnedStore(t *testing.T) (*BaseStore, map[string]int64) {
	t.Helper()
	s := NewBaseStore()
	if err := s.Register("R", NewSchema("A", "B", "C")); err != nil {
		t.Fatal(err)
	}
	row := func(i int) Tuple {
		return Tuple{Int(int64(i % 97)), Float(float64(i) / 8), String(fmt.Sprint("s", i%5))}
	}
	var ins, del []Tuple
	for i := range 4000 {
		ins = append(ins, row(i))
		if i%3 == 0 {
			del = append(del, row(i))
		}
	}
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: ins, Mult: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: del, Mult: -2}}); err != nil {
		t.Fatal(err)
	}
	model := map[string]int64{}
	for i, r := range ins {
		if i%3 != 0 {
			model[string(r.AppendKey(nil))] = 2
		}
	}
	return s, model
}

// checkStore asserts that every row of the model is found by its key with its
// multiplicity, and that the store holds nothing else.
func checkStore(t *testing.T, s *BaseStore, model map[string]int64) {
	t.Helper()
	r := s.Base("R")
	if r.Len() != len(model) {
		t.Fatalf("store holds %d rows, model %d", r.Len(), len(model))
	}
	for k, m := range model {
		if got, ok := r.GetKey(k); !ok || got != m {
			t.Fatalf("key %q: %d (found %v), want %d", k, got, ok, m)
		}
	}
}

// TestBaseStoreRowsKeepsTheTable: Rows sorts the relation inside its own
// entry table, so the range must leave the table whole — every key found,
// later inserts and deletes applied — whether it runs to the end or the
// consumer stops early (a writer that fails mid-stream stops the same way).
func TestBaseStoreRowsKeepsTheTable(t *testing.T) {
	for _, stop := range []int{-1, 0, 1, 700} {
		s, model := churnedStore(t)
		var prev string
		seen := 0
		for row, m := range s.Rows("R") {
			k := string(row.AppendKey(nil))
			if seen > 0 && k <= prev {
				t.Fatalf("stop %d: row %d out of key order", stop, seen)
			}
			if model[k] != m {
				t.Fatalf("stop %d: row %v yielded with %d, want %d", stop, row, m, model[k])
			}
			prev = k
			if seen++; seen == stop+1 {
				break
			}
		}
		if stop < 0 && seen != len(model) {
			t.Fatalf("Rows yielded %d rows, want %d", seen, len(model))
		}
		checkStore(t, s, model)
		ins := Tuple{Int(1000), Float(0), String("new")}
		del := s.Base("R").SortedEntries()[0].Tuple.Clone()
		if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: []Tuple{ins}, Mult: 1}, {Rel: "R", Tuples: []Tuple{del}, Mult: -2}}); err != nil {
			t.Fatal(err)
		}
		model[string(ins.AppendKey(nil))] = 1
		delete(model, string(del.AppendKey(nil)))
		checkStore(t, s, model)
	}
}

// TestBaseStoreRestoreContract: Restore fills an empty relation with exactly
// the rows announced and refuses whatever a valid checkpoint cannot hold.
func TestBaseStoreRestoreContract(t *testing.T) {
	seq := func(rows []Tuple, mults []int64) iter.Seq2[Tuple, int64] {
		return func(yield func(Tuple, int64) bool) {
			for i, r := range rows {
				if !yield(r, mults[i]) {
					return
				}
			}
		}
	}
	sch := NewSchema("A", "B")
	rows, mults := []Tuple{bsTuple(1, 2), bsTuple(3, 4), bsTuple(5, 6)}, []int64{1, -3, 2}
	for _, tc := range []struct {
		name  string
		rel   string
		sch   Schema
		n     int
		rows  []Tuple
		mults []int64
	}{
		{"unknown relation", "Z", sch, 3, rows, mults},
		{"other schema", "R", NewSchema("A", "C"), 3, rows, mults},
		{"a key twice", "R", sch, 3, []Tuple{bsTuple(1, 2), bsTuple(3, 4), bsTuple(1, 2)}, mults},
		{"zero multiplicity", "R", sch, 3, rows, []int64{1, 0, 2}},
		{"another arity", "R", sch, 3, []Tuple{bsTuple(1, 2), bsTuple(3), bsTuple(5, 6)}, mults},
		{"fewer rows than announced", "R", sch, 4, rows, mults},
		{"more rows than announced", "R", sch, 2, rows, mults},
	} {
		s := NewBaseStore()
		if err := s.Register("R", sch); err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(tc.rel, tc.sch, tc.n, seq(tc.rows, tc.mults)); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
	}
	s := NewBaseStore()
	if err := s.Register("R", sch); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore("R", sch, 3, seq(rows, mults)); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if got, _ := s.Base("R").Get(r); got != mults[i] {
			t.Errorf("row %v restored with %d, want %d", r, got, mults[i])
		}
	}
	if err := s.Restore("R", sch, 1, seq([]Tuple{bsTuple(9, 9)}, []int64{1})); err == nil {
		t.Error("a relation that holds rows was restored again")
	}
	// A restored row is the store's like any other: deleted, its entry and
	// cells serve the next insert, and the rest stay where they were.
	if err := s.ApplyBatch([]BaseUpdate{{Rel: "R", Tuples: []Tuple{bsTuple(1, 2)}, Mult: -1}, {Rel: "R", Tuples: []Tuple{bsTuple(7, 8)}}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Base("R").Get(bsTuple(7, 8)); got != 1 || s.Base("R").Len() != 3 || s.Base("R").Contains(bsTuple(1, 2)) {
		t.Errorf("after a delete and an insert: [7 8] = %d, %d rows", got, s.Base("R").Len())
	}
}
