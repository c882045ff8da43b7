package data

import (
	"slices"
	"strings"
	"testing"

	"fivm/internal/ring"
)

func TestRelationAccessors(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	r.Merge(Ints(1, 2), 5)
	r.Merge(Ints(3, 4), 7)

	if r.Ring() == nil {
		t.Error("Ring accessor")
	}
	if p, ok := r.Get(Ints(1, 2)); !ok || p != 5 {
		t.Errorf("Get = %v,%v", p, ok)
	}
	if _, ok := r.Get(Ints(2, 1)); ok {
		t.Error("Get on absent key")
	}
	if e := r.lookup(Ints(1, 2)); e == nil || !slices.Equal(e.Tuple, Ints(1, 2)) || e.Payload != 5 || e.Key() != Ints(1, 2).Key() {
		t.Errorf("lookup = %+v", e)
	}
	if got := len(r.Entries()); got != 2 {
		t.Errorf("Entries = %d", got)
	}
	se := r.SortedEntries()
	if len(se) != 2 {
		t.Fatalf("SortedEntries = %d", len(se))
	}
	// Sorted by encoded key: (1,2) before (3,4) for int encodings.
	if !slices.Equal(se[0].Tuple, Ints(1, 2)) {
		t.Errorf("sorted order: %v first", se[0].Tuple)
	}
	s := r.String()
	for _, frag := range []string{"[A,B]", "(1,2)->5", "(3,4)->7"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q: %s", frag, s)
		}
	}
}

func TestMergeAllAndSingleton(t *testing.T) {
	a := fromEntries[int64](ring.Int{}, NewSchema("A"), Entry[int64]{Tuple: Ints(1), Payload: 2})
	b := fromEntries[int64](ring.Int{}, NewSchema("A"), Entry[int64]{Tuple: Ints(1), Payload: 3})
	a.MergeAll(b)
	if p, _ := a.Get(Ints(1)); p != 5 {
		t.Errorf("MergeAll sum = %v", p)
	}
	c := fromEntries[int64](ring.Int{}, NewSchema("A"),
		Entry[int64]{Tuple: Ints(1), Payload: 1}, Entry[int64]{Tuple: Ints(1), Payload: 1})
	if p, _ := c.Get(Ints(1)); p != 2 {
		t.Errorf("fromEntries dedup = %v", p)
	}
}

func TestIterateEarlyStop(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Merge(Ints(1), 1)
	r.Merge(Ints(2), 1)
	n := 0
	r.Iterate(func(Tuple, int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("Iterate visited %d, want 1", n)
	}
}

func TestJoinAllSingleAndPanic(t *testing.T) {
	a := fromEntries[int64](ring.Int{}, NewSchema("A"), Entry[int64]{Tuple: Ints(1), Payload: 2})
	if JoinAll(a) != a {
		t.Error("JoinAll of one relation should return it")
	}
	defer func() {
		if recover() == nil {
			t.Error("JoinAll() should panic")
		}
	}()
	JoinAll[int64]()
}

// TestLiftOne: marginalizing with a lifting that maps every value to the
// ring's One computes plain aggregation over the payloads.
func TestLiftOne(t *testing.T) {
	one := func(string, Value) int64 { return ring.Int{}.One() }
	r := fromEntries[int64](ring.Int{}, NewSchema("A", "X"),
		Entry[int64]{Tuple: Ints(1, 42), Payload: 2}, Entry[int64]{Tuple: Ints(1, 7), Payload: 3},
		Entry[int64]{Tuple: Ints(2, 42), Payload: 4})
	m := Marginalize(r, "X", one)
	if p, _ := m.Get(Ints(1)); p != 5 || m.Len() != 2 {
		t.Errorf("⊕X with g_X = 1: %v", m)
	}
}

func TestIndexAccessors(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	merge := indexedMerge(ir)
	merge(Ints(1, 2), 1)
	ix := ir.EnsureIndex(NewSchema("A"))
	if ix.Len() != 1 {
		t.Errorf("Len = %d", ix.Len())
	}
	// A later merge reaches the index; EnsureIndex twice returns the same
	// instance and builds no other.
	merge(Ints(2, 2), 1)
	if ix.Len() != 2 {
		t.Errorf("Len = %d after a merge", ix.Len())
	}
	if ir.EnsureIndex(NewSchema("A")) != ix || len(ir.indexes) != 1 {
		t.Error("EnsureIndex not idempotent")
	}
}

func TestMergeAllIndexedSchemaPermutation(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	o := NewRelation[int64](ring.Int{}, NewSchema("B", "A"))
	o.Merge(Ints(2, 1), 7) // (B=2, A=1)
	ir.MergeAllIndexed(o)
	if p, ok := ir.Get(Ints(1, 2)); !ok || p != 7 {
		t.Errorf("permuted MergeAllIndexed = %v,%v", p, ok)
	}
}

func TestMultisetAccessors(t *testing.T) {
	m := multisetOf(NewSchema("X"), Ints(1), Ints(1), Ints(2))
	if m.TotalMult() != 3 {
		t.Errorf("TotalMult = %d", m.TotalMult())
	}
	if multOf(m, Ints(1)) != 2 || multOf(m, Ints(9)) != 0 {
		t.Error("Mult")
	}
	if got := m.SortedTuples(); len(got) != 2 || !slices.Equal(got[0], Ints(1)) {
		t.Errorf("SortedTuples = %v", got)
	}
	s := m.String()
	if !strings.Contains(s, "(1)->2") {
		t.Errorf("String = %s", s)
	}
	var nilMS *Multiset
	if nilMS.String() != "{}" || nilMS.TotalMult() != 0 || nilMS.Schema() != nil {
		t.Error("nil multiset accessors")
	}
	if nilMS.ProjectOnto(NewSchema("X")) != nil {
		t.Error("nil projection")
	}
	u := UnitMultisetTimes(3)
	if multOf(u, Tuple{}) != 3 {
		t.Errorf("UnitMultisetTimes = %v", u)
	}
	if UnitMultisetTimes(0) != nil {
		t.Error("UnitMultisetTimes(0) should be nil")
	}
	sing := SingletonMultiset("X", Int(5))
	if sing.Len() != 1 || !sing.Schema().Equal(NewSchema("X")) {
		t.Errorf("SingletonMultiset = %v", sing)
	}
}

func TestRelRingScaleFastPath(t *testing.T) {
	rr := RelRing{}
	a := multisetOf(NewSchema("X"), Ints(1), Ints(2))
	two := UnitMultisetTimes(2)
	p := rr.Mul(two, a)
	if multOf(p, Ints(1)) != 2 || multOf(p, Ints(2)) != 2 {
		t.Errorf("scale by 2 = %v", p)
	}
	if q := rr.Mul(a, two); multOf(q, Ints(1)) != 2 {
		t.Errorf("right scale = %v", q)
	}
	// Scaling by the unit shares the operand (immutability makes it safe).
	if rr.Mul(UnitMultisetTimes(1), a) != a {
		t.Error("unit scale should share")
	}
	if rr.Bytes(a) <= 0 || rr.Bytes(nil) != 0 {
		t.Error("Bytes")
	}
}

func TestSchemaCloneIndependent(t *testing.T) {
	s := NewSchema("A", "B")
	c := s.Clone()
	c[0] = "Z"
	if s[0] != "A" {
		t.Error("Clone shares storage")
	}
	p := MustProjector(s, NewSchema("B"))
	if p.Len() != 1 {
		t.Errorf("Projector Len = %d", p.Len())
	}
}

func TestValueEqualAcrossKinds(t *testing.T) {
	if Int(1) == Float(1) {
		t.Error("Int(1) must differ from Float(1)")
	}
	if String("1") == Int(1) {
		t.Error("String must differ from Int")
	}
	if Int(1) != Int(1) {
		t.Error("equal ints must compare equal")
	}
}

func TestUnionPanicsOnSchemaMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MergeAllIndexed of different schemas should panic")
		}
	}()
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A")))
	ir.MergeAllIndexed(NewRelation[int64](ring.Int{}, NewSchema("B")))
}

func TestMarginalizePanicsOnMissingVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Marginalize of absent variable should panic")
		}
	}()
	Marginalize(NewRelation[int64](ring.Int{}, NewSchema("A")), "Z",
		func(string, Value) int64 { return 1 })
}

// The accessors below only tests read.

// has reports whether r stores tuple t (under a non-zero payload).
func has[P any](r *Relation[P], t Tuple) bool {
	_, ok := r.Get(t)
	return ok
}

// Len returns the number of distinct index keys.
func (ix *Index[P]) Len() int { return ix.dir.len() }

// Len returns the total number of entries across shards.
func (s *Sharded[P]) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}
