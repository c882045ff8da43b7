package data

import (
	"slices"
	"testing"

	"fivm/internal/ring"
)

// Zero-allocation guards for the maintenance hot path. Unlike the
// benchmarks (which report allocs/op but fail nothing), these fail the
// build the moment a "small" change puts an allocation back on the per-
// tuple path — the class of regression that erased an order of magnitude
// in early profiles. AllocsPerRun warms up once, so one-time growth
// (table rehash, scratch buffers) is excluded by design: the guards pin
// steady state.

func guardZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
	}
}

// TestAllocGuardTupleAppendKey bounds encoding a four-value tuple's key into a
// reused buffer at zero allocations.
func TestAllocGuardTupleAppendKey(t *testing.T) {
	tup := Tuple{Int(123456), Float(3.5), String("key"), Int(-9)}
	buf := make([]byte, 0, 64)
	guardZeroAllocs(t, "Tuple.AppendKey", func() {
		buf = tup.AppendKey(buf[:0])
	})
}

// TestAllocGuardRelationGet bounds a point lookup of a stored key at zero
// allocations.
func TestAllocGuardRelationGet(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	tups := make([]Tuple, 512)
	for i := range tups {
		tups[i] = Ints(int64(i), int64(i%13))
		r.Merge(tups[i], int64(i)+1)
	}
	i := 0
	guardZeroAllocs(t, "Relation.Get", func() {
		if _, ok := r.Get(tups[i%len(tups)]); !ok {
			t.Fatal("missing key")
		}
		i++
	})
}

// TestAllocGuardRelationMergeSteady bounds merging an integer payload into a
// key already stored at zero allocations.
func TestAllocGuardRelationMergeSteady(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	tups := make([]Tuple, 512)
	for i := range tups {
		tups[i] = Ints(int64(i), int64(i%13))
		r.Merge(tups[i], int64(i)+1)
	}
	i := 0
	guardZeroAllocs(t, "Relation.Merge steady-state", func() {
		r.Merge(tups[i%len(tups)], 1) // every key already exists
		i++
	})
}

// TestAllocGuardTripleMergeSteady bounds merging a cofactor payload into a key
// already stored at zero allocations.
func TestAllocGuardTripleMergeSteady(t *testing.T) {
	cf := ring.Cofactor{}
	r := NewRelation[ring.Triple](cf, NewSchema("A"))
	tup := Ints(1)
	d := cf.Mul(ring.LiftValue(0, 2), cf.Mul(ring.LiftValue(1, 3), ring.LiftValue(2, 4)))
	r.Merge(tup, d)
	guardZeroAllocs(t, "Relation.Merge cofactor steady-state", func() {
		r.Merge(tup, d)
	})
}

// TestAllocGuardTripleAddInto bounds adding one cofactor triple into another
// in place at zero allocations.
func TestAllocGuardTripleAddInto(t *testing.T) {
	cf := ring.Cofactor{}
	acc := cf.Mul(ring.LiftValue(0, 2), cf.Mul(ring.LiftValue(1, 3), ring.LiftValue(2, 4)))
	d := cf.Neg(acc)
	guardZeroAllocs(t, "Cofactor.AddInto", func() {
		cf.AddInto(&acc, d)
	})
}

// TestAllocGuardRadixSortKeys bounds sorting and deduplicating 512 encoded
// keys in place, as a snapshot patch does its dirty list (slices.Sort, then
// slices.Compact), at zero allocations. The name predates the standard
// library's sort here.
func TestAllocGuardRadixSortKeys(t *testing.T) {
	keys := make([]string, 512)
	scratch := make([]string, len(keys))
	for i := range keys {
		keys[i] = string(Ints(int64(i*37%512), int64(i%7)).AppendKey(nil))
	}
	guardZeroAllocs(t, "slices.Sort+slices.Compact", func() {
		copy(scratch, keys)
		slices.Sort(scratch)
		_ = slices.Compact(scratch)
	})
}

// TestAllocGuardSnapshotPublish is the zero-alloc snapshot publish guard:
// a steady-state publish+release cycle must cost at most 2 allocations —
// the snapshot struct itself plus the amortized remainder (generation
// sentinel and backstop registration every genSpan publishes, occasional
// free-list growth), which AllocsPerRun averages to well under one.
// Everything else (dirty list, touched entries' copies, chunk arrays, chunk
// directory, pin bookkeeping) must come from recycled storage.
func TestAllocGuardSnapshotPublish(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race pass")
	}
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	tups := make([]Tuple, 4096)
	for i := range tups {
		tups[i] = Ints(int64(i), int64(i%251))
		r.Merge(tups[i], int64(i)+1)
	}
	r.Snapshot().Release()
	// Warm the entry pool and the chunk free list so the guarded window
	// measures steady state, not their growth.
	for i := 0; i < 400; i++ {
		r.Merge(tups[i%len(tups)], 1)
		r.Snapshot().Release()
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		r.Merge(tups[i%len(tups)], 1)
		r.Snapshot().Release()
		i++
	})
	if allocs > 2 {
		t.Errorf("snapshot publish: %.2f allocs/op, want <= 2", allocs)
	}
}
