package ringtest

import (
	"testing"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// TestWrapForwardsTiers: the wrapper forwards the in-place operations, so a
// relation over a counted F[Z] ring accumulates in place and counts one Add
// per merge onto an existing key, and it forwards Bytes.
func TestWrapForwardsTiers(t *testing.T) {
	var c Counter
	rel := Wrap[*data.Multiset](data.RelRing{}, &c)
	r := data.NewRelation(rel, data.NewSchema("A"))
	x := data.SingletonMultiset("B", data.Int(1))
	r.Merge(data.Ints(1), x)
	r.Merge(data.Ints(1), data.SingletonMultiset("B", data.Int(2)))
	if got := c.Load(); got.Add != 1 || got.Mul != 0 {
		t.Errorf("counts = %+v, want one Add", got)
	}
	if p, _ := r.Get(data.Ints(1)); p.Len() != 2 {
		t.Errorf("merged payload %v, want two rows", p)
	}
	if x.Len() != 1 {
		t.Errorf("the merged operand changed: %v", x)
	}
	m := data.UnitMultiset()
	if got, want := rel.Bytes(m), (data.RelRing{}).Bytes(m); got != want {
		t.Errorf("Bytes = %d, want the inner ring's %d", got, want)
	}
}

// TestCountsTripleWork counts each operation once, and the floats of its
// result: 1+len(S)+len(Q) for a triple.
func TestCountsTripleWork(t *testing.T) {
	var c Counter
	r := Wrap[ring.Triple](ring.Cofactor{}, &c)
	x, y := ring.LiftValue(0, 2), ring.LiftValue(1, 3)
	p := r.Mul(x, y) // two variables: 1+2+4 floats
	var d ring.Triple
	r.CopyInto(&d, x)
	r.AddInto(&d, x)         // one variable: 1+1+1
	r.MulAddInto(&d, &x, &y) // grows to two: 7
	r.Add(p, p)              // 7
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
