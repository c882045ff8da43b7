package ringtest

import (
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// TestWrapForwardsTiers: the wrapper is ring.Mutable exactly when the inner
// ring is, and sized like it.
func TestWrapForwardsTiers(t *testing.T) {
	var c Counter
	if ring.MutableOf(Wrap[ring.Triple](ring.Cofactor{}, &c)) == nil {
		t.Error("counted cofactor ring is not Mutable")
	}
	if ring.MutableOf(Wrap[float64](ring.Float{}, &c)) == nil {
		t.Error("counted float ring is not Mutable")
	}
	rel := Wrap[*data.Multiset](data.RelRing{}, &c)
	if ring.MutableOf(rel) != nil {
		t.Error("counted relational ring claims Mutable")
	}
	m := data.UnitMultiset()
	if got, want := rel.(ring.Sized[*data.Multiset]).Bytes(m), (data.RelRing{}).Bytes(m); got != want {
		t.Errorf("Bytes = %d, want the inner ring's %d", got, want)
	}
}

// TestCountsTripleWork counts each operation once, and the floats of its
// result: 1+len(S)+len(Q) for a triple.
func TestCountsTripleWork(t *testing.T) {
	var c Counter
	r := Wrap[ring.Triple](ring.Cofactor{}, &c)
	mut := ring.MutableOf(r)
	x, y := ring.LiftValue(0, 2), ring.LiftValue(1, 3)
	p := r.Mul(x, y) // two variables: 1+2+4 floats
	var d ring.Triple
	mut.CopyInto(&d, x)
	mut.AddInto(&d, x)         // one variable: 1+1+1
	mut.MulAddInto(&d, &x, &y) // grows to two: 7
	r.Add(p, p)                // 7
	want := Counts{Add: 2, Mul: 2, Floats: 7 + 3 + 7 + 7}
	if got := c.Load(); got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if got := want.Sub(Counts{Add: 1, Mul: 1, Floats: 10}); got != (Counts{Add: 1, Mul: 1, Floats: 14}) {
		t.Errorf("Sub = %+v", got)
	}
}

// TestCountedRelationMatchesInner: a relation over the counted ring holds
// exactly what one over the inner ring holds, and its merges are counted.
func TestCountedRelationMatchesInner(t *testing.T) {
	var c Counter
	schema := data.NewSchema("A")
	plain := data.NewRelation[ring.Triple](ring.Cofactor{}, schema)
	counted := data.NewRelation(Wrap[ring.Triple](ring.Cofactor{}, &c), schema)
	for i := 0; i < 10; i++ {
		tu := data.Ints(int64(i % 3))
		p := ring.LiftValue(0, float64(i))
		plain.Merge(tu, p)
		counted.Merge(tu, p)
	}
	if plain.String() != counted.String() {
		t.Errorf("counted relation %s, inner %s", counted, plain)
	}
	if got := c.Load(); got.Add != 7 || got.Mul != 0 { // three keys stored, seven merged into
		t.Errorf("counts = %+v, want 7 Adds", got)
	}
	if plain.MemoryBytes() != counted.MemoryBytes() {
		t.Errorf("MemoryBytes %d, inner %d", counted.MemoryBytes(), plain.MemoryBytes())
	}
}
