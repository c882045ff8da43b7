package data

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fivm/internal/ring"
)

// --- Value / Tuple -------------------------------------------------------

func TestValueKinds(t *testing.T) {
	if Int(5).Kind() != KindInt || Float(1.5).Kind() != KindFloat || String("x").Kind() != KindString {
		t.Fatal("kind mismatch")
	}
	if Int(5).AsInt() != 5 || Int(5).AsFloat() != 5 {
		t.Error("Int conversions")
	}
	if Float(2.5).AsFloat() != 2.5 || Float(2.9).AsInt() != 2 {
		t.Error("Float conversions")
	}
	if String("ab").AsString() != "ab" || String("ab").AsFloat() != 0 {
		t.Error("String conversions")
	}
	if Int(7).String() != "7" || String("z").String() != "z" {
		t.Error("String rendering")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Distinct tuples must have distinct keys; equal tuples equal keys.
	seen := make(map[string]Tuple)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(4)
		tup := make(Tuple, n)
		for j := range tup {
			switch rng.Intn(3) {
			case 0:
				tup[j] = Int(int64(rng.Intn(50) - 25))
			case 1:
				tup[j] = Float(float64(rng.Intn(10)) / 2)
			default:
				tup[j] = String(string(rune('a' + rng.Intn(4))))
			}
		}
		k := tup.Key()
		if prev, ok := seen[k]; ok {
			if !slices.Equal(prev, tup) {
				t.Fatalf("key collision: %v vs %v", prev, tup)
			}
		}
		seen[k] = tup
	}
}

func TestTupleKeyDistinguishesKinds(t *testing.T) {
	// Int(1) and Float(1) are different keys; so are ("ab","c") vs ("a","bc").
	if (Tuple{Int(1)}).Key() == (Tuple{Float(1)}).Key() {
		t.Error("Int(1) and Float(1) collide")
	}
	if (Tuple{String("ab"), String("c")}).Key() == (Tuple{String("a"), String("bc")}).Key() {
		t.Error("string boundary collision")
	}
	if (Tuple{}).Key() != "" {
		t.Error("empty tuple key should be empty")
	}
}

func TestConcatAndClone(t *testing.T) {
	a, b := Ints(1, 2), Ints(3)
	c := Concat(a, b)
	if !slices.Equal(c, Ints(1, 2, 3)) {
		t.Fatalf("Concat = %v", c)
	}
	cl := a.Clone()
	cl[0] = Int(9)
	if a[0].AsInt() != 1 {
		t.Error("Clone shares storage")
	}
}

// --- Schema / Projector --------------------------------------------------

func TestSchemaOps(t *testing.T) {
	s := NewSchema("A", "B", "C")
	o := NewSchema("B", "D")
	if !s.Union(o).Equal(NewSchema("A", "B", "C", "D")) {
		t.Errorf("Union = %v", s.Union(o))
	}
	if !s.Intersect(o).Equal(NewSchema("B")) {
		t.Errorf("Intersect = %v", s.Intersect(o))
	}
	if !s.Minus(o).Equal(NewSchema("A", "C")) {
		t.Errorf("Minus = %v", s.Minus(o))
	}
	if !s.SameSet(NewSchema("C", "A", "B")) {
		t.Error("SameSet order-insensitive")
	}
	if s.SameSet(NewSchema("A", "B")) {
		t.Error("SameSet on different sets")
	}
	if s.IndexOf("C") != 2 || s.IndexOf("Z") != -1 {
		t.Error("IndexOf")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchema with duplicates should panic")
		}
	}()
	NewSchema("A", "A")
}

func TestProjector(t *testing.T) {
	from := NewSchema("A", "B", "C")
	p := MustProjector(from, NewSchema("C", "A"))
	got := p.Apply(Ints(1, 2, 3))
	if !slices.Equal(got, Ints(3, 1)) {
		t.Fatalf("Apply = %v", got)
	}
	if p.Key(Ints(1, 2, 3)) != Ints(3, 1).Key() {
		t.Error("Key mismatch with Apply().Key()")
	}
	if _, err := NewProjector(from, NewSchema("Z")); err == nil {
		t.Error("missing target should error")
	}
}

// --- Relation ------------------------------------------------------------

// fromEntries builds a relation from tuple/payload pairs, merging duplicate
// keys.
func fromEntries[P any](r ring.Ring[P], schema Schema, entries ...Entry[P]) *Relation[P] {
	rel := NewRelation(r, schema)
	for _, e := range entries {
		rel.Merge(e.Tuple, e.Payload)
	}
	return rel
}

// union is a ⊎ b, the key-wise payload sum in a's variable order (b's
// schema must hold the same variables).
func union[P any](a, b *Relation[P]) *Relation[P] {
	out := a.Clone()
	proj := MustProjector(b.Schema(), a.Schema())
	b.Iterate(func(t Tuple, p P) bool {
		out.MergeProjected(proj, t, p)
		return true
	})
	return out
}

func intRel(schema Schema, rows ...[2]any) *Relation[int64] {
	r := NewRelation[int64](ring.Int{}, schema)
	for _, row := range rows {
		r.Merge(row[0].(Tuple), int64(row[1].(int)))
	}
	return r
}

func TestRelationMergeCancellation(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Merge(Ints(1), 2)
	r.Merge(Ints(1), -2)
	if r.Len() != 0 {
		t.Errorf("Len = %d after cancellation, want 0", r.Len())
	}
	if has(r, Ints(1)) {
		t.Error("cancelled key still present")
	}
	r.Merge(Ints(1), 0)
	if r.Len() != 0 {
		t.Error("zero merge created a key")
	}
}

func TestRelationSetGetNegate(t *testing.T) {
	r := intRel(NewSchema("A", "B"), [2]any{Ints(1, 2), 3})
	if p, ok := r.Get(Ints(1, 2)); !ok || p != 3 {
		t.Fatalf("Get = %v,%v", p, ok)
	}
	n := r.Negate()
	if p, _ := n.Get(Ints(1, 2)); p != -3 {
		t.Errorf("Negate payload = %v", p)
	}
	u := union(r, n)
	if u.Len() != 0 {
		t.Errorf("r ⊎ -r has %d keys", u.Len())
	}
	r.Set(Ints(1, 2), 0)
	if r.Len() != 0 {
		t.Error("Set zero should delete")
	}
}

// TestExample21 reproduces paper Example 2.1: union, join, and
// marginalization over an abstract ring (here Z with symbolic payloads
// encoded as distinct primes so products are distinguishable).
func TestExample21(t *testing.T) {
	rg := ring.Int{}
	r1, r2, s1, s2, t1, t2 := int64(2), int64(3), int64(5), int64(7), int64(11), int64(13)
	R := fromEntries[int64](rg, NewSchema("A", "B"),
		Entry[int64]{Tuple: Ints(1, 1), Payload: r1}, Entry[int64]{Tuple: Ints(2, 1), Payload: r2})
	S := fromEntries[int64](rg, NewSchema("A", "B"),
		Entry[int64]{Tuple: Ints(2, 1), Payload: s1}, Entry[int64]{Tuple: Ints(3, 2), Payload: s2})
	T := fromEntries[int64](rg, NewSchema("B", "C"),
		Entry[int64]{Tuple: Ints(1, 1), Payload: t1}, Entry[int64]{Tuple: Ints(2, 2), Payload: t2})

	u := union(R, S)
	if p, _ := u.Get(Ints(2, 1)); p != r2+s1 {
		t.Errorf("(R⊎S)[a2,b1] = %v, want %v", p, r2+s1)
	}
	if u.Len() != 3 {
		t.Errorf("|R⊎S| = %d, want 3", u.Len())
	}

	j := Join(u, T)
	if p, _ := j.Get(Ints(1, 1, 1)); p != r1*t1 {
		t.Errorf("join[a1,b1,c1] = %v, want %v", p, r1*t1)
	}
	if p, _ := j.Get(Ints(2, 1, 1)); p != (r2+s1)*t1 {
		t.Errorf("join[a2,b1,c1] = %v, want %v", p, (r2+s1)*t1)
	}
	if p, _ := j.Get(Ints(3, 2, 2)); p != s2*t2 {
		t.Errorf("join[a3,b2,c2] = %v, want %v", p, s2*t2)
	}
	if j.Len() != 3 {
		t.Errorf("|join| = %d, want 3", j.Len())
	}

	// Marginalize A with lifting g_A(a) = a (so results stay distinct).
	liftA := func(v string, x Value) int64 { return x.AsInt() }
	m := Marginalize(j, "A", liftA)
	if p, _ := m.Get(Ints(1, 1)); p != r1*t1*1+(r2+s1)*t1*2 {
		t.Errorf("⊕A[b1,c1] = %v", p)
	}
	if p, _ := m.Get(Ints(2, 2)); p != s2*t2*3 {
		t.Errorf("⊕A[b2,c2] = %v", p)
	}
}

func TestJoinPayloadOrderAndSchema(t *testing.T) {
	rg := ring.Int{}
	a := fromEntries[int64](rg, NewSchema("A", "B"), Entry[int64]{Tuple: Ints(1, 2), Payload: 5})
	b := fromEntries[int64](rg, NewSchema("B", "C"), Entry[int64]{Tuple: Ints(2, 3), Payload: 7})
	j := Join(a, b)
	if !j.Schema().Equal(NewSchema("A", "B", "C")) {
		t.Errorf("schema = %v", j.Schema())
	}
	if p, _ := j.Get(Ints(1, 2, 3)); p != 35 {
		t.Errorf("payload = %v", p)
	}
	// Disjoint schemas: Cartesian product.
	c := fromEntries[int64](rg, NewSchema("D"), Entry[int64]{Tuple: Ints(9), Payload: 2}, Entry[int64]{Tuple: Ints(8), Payload: 3})
	x := Join(a, c)
	if x.Len() != 2 {
		t.Errorf("Cartesian len = %d", x.Len())
	}
}

func TestMarginalizeVarsMultiple(t *testing.T) {
	rg := ring.Int{}
	r := fromEntries[int64](rg, NewSchema("A", "B", "C"),
		Entry[int64]{Tuple: Ints(1, 2, 3), Payload: 1},
		Entry[int64]{Tuple: Ints(1, 4, 5), Payload: 1})
	lift := func(v string, x Value) int64 { return x.AsInt() }
	m := NewRelation[int64](ring.Int{}, NewSchema("A"))
	MarginalizeInto(m, r, NewSchema("B", "C"), lift)
	if !m.Schema().Equal(NewSchema("A")) {
		t.Fatalf("schema = %v", m.Schema())
	}
	if p, _ := m.Get(Ints(1)); p != 2*3+4*5 {
		t.Errorf("payload = %v, want 26", p)
	}
}

func TestProjectSums(t *testing.T) {
	rg := ring.Int{}
	r := fromEntries[int64](rg, NewSchema("A", "B"),
		Entry[int64]{Tuple: Ints(1, 1), Payload: 2}, Entry[int64]{Tuple: Ints(1, 2), Payload: 3})
	p := Project(r, NewSchema("A"))
	if got, _ := p.Get(Ints(1)); got != 5 {
		t.Errorf("Project sum = %v", got)
	}
}

func TestUnionQuickAssocComm(t *testing.T) {
	// Union is commutative and associative on random relations.
	rg := ring.Int{}
	schema := NewSchema("A", "B")
	gen := func(seed int64) *Relation[int64] {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation[int64](rg, schema)
		for i := 0; i < rng.Intn(20); i++ {
			r.Merge(Ints(int64(rng.Intn(5)), int64(rng.Intn(5))), int64(rng.Intn(7)-3))
		}
		return r
	}
	eq := func(a, b *Relation[int64]) bool {
		return a.Equal(b, func(x, y int64) bool { return x == y })
	}
	if err := quick.Check(func(s1, s2, s3 int64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		if !eq(union(a, b), union(b, a)) {
			return false
		}
		return eq(union(union(a, b), c), union(a, union(b, c)))
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDistributesOverUnion(t *testing.T) {
	// (a ⊎ b) ⊗ c = (a ⊗ c) ⊎ (b ⊗ c) — the algebraic identity behind
	// the delta rules of Figure 4.
	rg := ring.Int{}
	sAB, sBC := NewSchema("A", "B"), NewSchema("B", "C")
	gen := func(seed int64, schema Schema) *Relation[int64] {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation[int64](rg, schema)
		for i := 0; i < rng.Intn(15); i++ {
			r.Merge(Ints(int64(rng.Intn(4)), int64(rng.Intn(4))), int64(rng.Intn(9)-4))
		}
		return r
	}
	eq := func(a, b *Relation[int64]) bool {
		return a.Equal(b, func(x, y int64) bool { return x == y })
	}
	if err := quick.Check(func(s1, s2, s3 int64) bool {
		a, b := gen(s1, sAB), gen(s2, sAB)
		c := gen(s3, sBC)
		return eq(Join(union(a, b), c), union(Join(a, c), Join(b, c)))
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalizeCommutesWithUnion(t *testing.T) {
	// ⊕_X (a ⊎ b) = (⊕_X a) ⊎ (⊕_X b) — linearity of marginalization.
	rg := ring.Int{}
	schema := NewSchema("A", "B")
	lift := func(v string, x Value) int64 { return x.AsInt() + 1 }
	gen := func(seed int64) *Relation[int64] {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation[int64](rg, schema)
		for i := 0; i < rng.Intn(15); i++ {
			r.Merge(Ints(int64(rng.Intn(4)), int64(rng.Intn(4))), int64(rng.Intn(9)-4))
		}
		return r
	}
	eq := func(a, b *Relation[int64]) bool {
		return a.Equal(b, func(x, y int64) bool { return x == y })
	}
	if err := quick.Check(func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		return eq(Marginalize(union(a, b), "B", lift),
			union(Marginalize(a, "B", lift), Marginalize(b, "B", lift)))
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- Index / IndexedRelation ---------------------------------------------

// indexedMerge returns a function that merges one row into ir through
// MergeAllIndexed, the merge the plans run, as a one-row delta in a scratch
// relation it reuses, so a merge allocates nothing the index does not.
func indexedMerge[P any](ir *IndexedRelation[P]) func(Tuple, P) {
	d := NewRelation(ir.Ring(), ir.Schema())
	d.RecycleCleared()
	return func(t Tuple, p P) {
		d.Merge(t, p)
		ir.MergeAllIndexed(d)
		d.Clear()
	}
}

func TestIndexedRelationMaintainsIndexes(t *testing.T) {
	rg := ring.Int{}
	schema := NewSchema("A", "B")
	ir := NewIndexedRelation(NewRelation[int64](rg, schema))
	merge := indexedMerge(ir)
	merge(Ints(1, 10), 1)
	merge(Ints(1, 20), 1)
	merge(Ints(2, 30), 1)

	ix := ir.EnsureIndex(NewSchema("A"))
	if got := ix.ProbeBytes(Ints(1).AppendKey(nil)).Len(); got != 2 {
		t.Errorf("Probe(A=1) = %d keys, want 2", got)
	}
	// Updates after index creation are reflected.
	merge(Ints(1, 40), 1)
	if got := ix.ProbeBytes(Ints(1).AppendKey(nil)).Len(); got != 3 {
		t.Errorf("Probe(A=1) = %d keys after insert, want 3", got)
	}
	// Deletion through cancellation removes from the index.
	merge(Ints(1, 10), -1)
	if got := ix.ProbeBytes(Ints(1).AppendKey(nil)).Len(); got != 2 {
		t.Errorf("Probe(A=1) = %d keys after delete, want 2", got)
	}
	// Payload updates that do not change presence keep the index stable.
	merge(Ints(1, 20), 5)
	if got := ix.ProbeBytes(Ints(1).AppendKey(nil)).Len(); got != 2 {
		t.Errorf("Probe(A=1) = %d keys after payload change, want 2", got)
	}
}

func TestIndexEmptySchemaActsAsScan(t *testing.T) {
	rg := ring.Int{}
	ir := NewIndexedRelation(NewRelation[int64](rg, NewSchema("A")))
	merge := indexedMerge(ir)
	merge(Ints(1), 1)
	merge(Ints(2), 1)
	ix := ir.EnsureIndex(Schema{})
	if got := ix.ProbeBytes(nil).Len(); got != 2 {
		t.Errorf("empty-schema probe = %d, want 2", got)
	}
}

// --- Multiset / relational ring -------------------------------------------

// multisetOf builds a multiset from tuples all with multiplicity 1.
func multisetOf(schema Schema, tuples ...Tuple) *Multiset {
	m := NewMultiset(schema)
	for _, t := range tuples {
		m.add(t, 1)
	}
	return m
}

// multOf is the multiplicity of tuple t in m.
func multOf(m *Multiset, t Tuple) int64 {
	if m == nil {
		return 0
	}
	return m.rows[t.Key()].mult
}

func TestRelRingIdentities(t *testing.T) {
	rr := RelRing{}
	one := rr.One()
	if one.Len() != 1 || multOf(one, Tuple{}) != 1 {
		t.Fatalf("One = %v", one)
	}
	if !rr.IsZero(rr.Zero()) || !rr.IsZero(nil) {
		t.Error("Zero should be zero")
	}
	a := multisetOf(NewSchema("X"), Ints(1), Ints(2))
	if got := rr.Mul(one, a); got.Len() != 2 || !got.Schema().SameSet(NewSchema("X")) {
		t.Errorf("1*a = %v", got)
	}
	if got := rr.Mul(a, one); got.Len() != 2 {
		t.Errorf("a*1 = %v", got)
	}
	if got := rr.Add(a, rr.Neg(a)); !rr.IsZero(got) {
		t.Errorf("a + (-a) = %v", got)
	}
}

func TestRelRingMulIsCartesianOnDisjoint(t *testing.T) {
	rr := RelRing{}
	a := multisetOf(NewSchema("X"), Ints(1), Ints(2))
	b := multisetOf(NewSchema("Y"), Ints(7), Ints(8), Ints(9))
	p := rr.Mul(a, b)
	if p.Len() != 6 {
		t.Errorf("|a×b| = %d, want 6", p.Len())
	}
	if !p.Schema().SameSet(NewSchema("X", "Y")) {
		t.Errorf("schema = %v", p.Schema())
	}
	if multOf(p, Ints(1, 7)) != 1 {
		t.Error("missing pair (1,7)")
	}
}

func TestRelRingMulNaturalJoin(t *testing.T) {
	rr := RelRing{}
	a := multisetOf(NewSchema("X", "Y"), Ints(1, 1), Ints(2, 1))
	b := multisetOf(NewSchema("Y", "Z"), Ints(1, 5))
	p := rr.Mul(a, b)
	if p.Len() != 2 {
		t.Errorf("|a⋈b| = %d, want 2", p.Len())
	}
	if multOf(p, Ints(1, 1, 5)) != 1 || multOf(p, Ints(2, 1, 5)) != 1 {
		t.Errorf("join contents wrong: %v", p)
	}
}

func TestRelRingAxiomsOnFixedSchema(t *testing.T) {
	rr := RelRing{}
	gen := func(rng *rand.Rand) *Multiset {
		if rng.Intn(5) == 0 {
			return nil
		}
		m := NewMultiset(NewSchema("X"))
		for i := 0; i < 1+rng.Intn(4); i++ {
			m.add(Ints(int64(rng.Intn(4))), int64(rng.Intn(5)-2))
		}
		if m.Len() == 0 {
			return nil
		}
		return m
	}
	eq := func(a, b *Multiset) bool {
		if a.Len() != b.Len() {
			return false
		}
		equal := true
		a.Iterate(func(t Tuple, m int64) bool {
			// Compare via projection since schemas may be ordered alike here.
			if multOf(b, t) != m {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		if !eq(rr.Add(a, b), rr.Add(b, a)) {
			t.Fatalf("Add not commutative")
		}
		if !eq(rr.Add(rr.Add(a, b), c), rr.Add(a, rr.Add(b, c))) {
			t.Fatalf("Add not associative")
		}
		if !rr.IsZero(rr.Add(a, rr.Neg(a))) {
			t.Fatalf("no additive inverse")
		}
		// Distributivity with a disjoint-schema multiplier.
		d := multisetOf(NewSchema("Y"), Ints(9))
		if !eq2(rr.Mul(rr.Add(a, b), d), rr.Add(rr.Mul(a, d), rr.Mul(b, d))) {
			t.Fatalf("Mul does not distribute over Add")
		}
	}
}

// TestRelRingInPlaceMatchesImmutable mirrors ring's
// checkMutableMatchesImmutable for F[Z] over random multisets on one schema:
// each in-place operation equals its immutable counterpart, and leaves *dst
// sharing no rows map with an operand — a further AddInto on *dst changes
// none of them, though Add and a product by the nullary unit return an
// operand itself.
func TestRelRingInPlaceMatchesImmutable(t *testing.T) {
	rr := RelRing{}
	x := NewSchema("X")
	gen := func(rng *rand.Rand) *Multiset {
		m := NewMultiset(x)
		for i := 0; i < rng.Intn(5); i++ {
			m.add(Ints(int64(rng.Intn(4))), int64(rng.Intn(5)-2))
		}
		return m
	}
	bump := multisetOf(x, Ints(0), Ints(1), Ints(2), Ints(3)) // touches every key gen makes
	same := func(op string, got, want *Multiset) {
		t.Helper()
		if !eq2(got, want) {
			t.Fatalf("%s = %v, want %v", op, got, want)
		}
	}
	apart := func(op string, dst **Multiset, operands ...*Multiset) {
		t.Helper()
		before := make([]string, len(operands))
		for i, o := range operands {
			before[i] = o.String()
		}
		rr.AddInto(dst, bump)
		for i, o := range operands {
			if got := o.String(); got != before[i] {
				t.Fatalf("%s: AddInto on *dst changed operand %d from %s to %s", op, i, before[i], got)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		unit := rr.One()
		if !rr.IsOne(&unit) {
			t.Fatal("IsOne(One()) = false")
		}

		var cp *Multiset
		rr.CopyInto(&cp, a)
		same("CopyInto", cp, a)
		apart("CopyInto", &cp, a)

		rr.CopyInto(&cp, a) // into the dirty storage
		rr.AddInto(&cp, b)
		same("AddInto", cp, rr.Add(a, b))
		apart("AddInto", &cp, a, b)

		var mp *Multiset
		rr.MulInto(&mp, &a, &b)
		same("MulInto", mp, rr.Mul(a, b))
		apart("MulInto", &mp, a, b)
		rr.MulInto(&mp, &unit, &b) // Mul returns b itself
		same("MulInto by one", mp, b)
		apart("MulInto by one", &mp, unit, b)

		var acc *Multiset
		rr.CopyInto(&acc, c)
		rr.MulAddInto(&acc, &a, &b)
		same("MulAddInto", acc, rr.Add(c, rr.Mul(a, b)))
		apart("MulAddInto", &acc, c, a, b)

		// An empty *dst, nil or not, takes its rows from the operand.
		var empty *Multiset
		rr.AddInto(&empty, a)
		same("AddInto onto nil", empty, a)
		apart("AddInto onto nil", &empty, a)
		empty = NewMultiset(x)
		rr.MulAddInto(&empty, &b, &unit)
		same("MulAddInto onto empty", empty, b)
		apart("MulAddInto onto empty", &empty, b, unit)

		var chain *Multiset
		rr.CopyInto(&chain, rr.Zero())
		want := rr.Zero()
		for j := 0; j < 6; j++ {
			y, z := gen(rng), gen(rng)
			rr.MulAddInto(&chain, &y, &z)
			want = rr.Add(want, rr.Mul(y, z))
		}
		same("MulAddInto chain", chain, want)
	}
}

// eq2 compares multisets over the same schema set.
func eq2(a, b *Multiset) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.Len() == 0 {
		return true
	}
	proj := MustProjector(b.Schema(), a.Schema())
	equal := true
	b.Iterate(func(t Tuple, m int64) bool {
		if multOf(a, proj.Apply(t)) != m {
			equal = false
			return false
		}
		return true
	})
	return equal
}

func TestMultisetProjectOnto(t *testing.T) {
	m := multisetOf(NewSchema("X", "Y"), Ints(1, 1), Ints(1, 2), Ints(2, 1))
	p := m.ProjectOnto(NewSchema("X"))
	if p.Len() != 2 {
		t.Errorf("|proj| = %d, want 2", p.Len())
	}
	if multOf(p, Ints(1)) != 2 || multOf(p, Ints(2)) != 1 {
		t.Errorf("proj = %v", p)
	}
	// Projection onto the empty schema sums everything.
	e := m.ProjectOnto(Schema{})
	if multOf(e, Tuple{}) != 3 {
		t.Errorf("total = %d", multOf(e, Tuple{}))
	}
}

func TestMultisetCancellation(t *testing.T) {
	rr := RelRing{}
	a := multisetOf(NewSchema("X"), Ints(1))
	b := rr.Neg(multisetOf(NewSchema("X"), Ints(1)))
	if got := rr.Add(a, b); !rr.IsZero(got) {
		t.Errorf("a - a = %v", got)
	}
}
