package data

import (
	"math/rand"
	"slices"
	"testing"

	"fivm/internal/ring"
)

func TestAppendKeyMatchesKey(t *testing.T) {
	tup := Tuple{Int(-7), Float(2.5), String("xy"), Int(1 << 40)}
	var buf []byte
	buf = tup.AppendKey(buf[:0])
	if string(buf) != tup.Key() {
		t.Error("AppendKey and Key disagree")
	}
	// Reusing the buffer across tuples yields the same encodings.
	other := Ints(1, 2, 3)
	buf = other.AppendKey(buf[:0])
	if string(buf) != other.Key() {
		t.Error("AppendKey with reused buffer disagrees with Key")
	}
}

func TestGetAndMergeProjected(t *testing.T) {
	rg := ring.Int{}
	r := NewRelation[int64](rg, NewSchema("B", "A"))
	src := NewSchema("A", "B", "C")
	proj := MustProjector(src, r.Schema())
	wide := Ints(1, 2, 3) // A=1 B=2 C=3 -> (B=2, A=1)

	r.MergeProjected(proj, wide, 5)
	if p, ok := r.Get(Ints(2, 1)); !ok || p != 5 {
		t.Fatalf("MergeProjected stored %v/%v", p, ok)
	}
	if e := r.LookupProjected(proj, wide); e == nil || e.Payload != 5 {
		t.Fatalf("LookupProjected = %v", e)
	}
	// Merging the additive inverse deletes the key.
	r.MergeProjected(proj, wide, -5)
	if r.Len() != 0 {
		t.Error("cancelled entry not deleted")
	}
	if r.LookupProjected(proj, wide) != nil {
		t.Error("LookupProjected found deleted key")
	}
}

// TestMergeMulProjected checks the fused multiply-merge against the
// two-step equivalent.
func TestMergeMulProjected(t *testing.T) {
	cf := ring.Cofactor{}
	from := NewSchema("A", "B")
	to := NewSchema("A")
	proj := MustProjector(from, to)

	fused := NewRelation[ring.Triple](cf, to)
	plain := NewRelation[ring.Triple](cf, to)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		tup := Ints(int64(rng.Intn(4)), int64(rng.Intn(4)))
		a := ring.LiftValue(0, float64(rng.Intn(5)-2))
		b := ring.LiftValue(1, float64(rng.Intn(5)-2))
		fused.MergeMulProjected(proj, tup, &a, &b)
		plain.MergeProjected(proj, tup, cf.Mul(a, b))
	}
	eq := func(x, y ring.Triple) bool {
		if x.Count() != y.Count() {
			return false
		}
		for j := 0; j < 2; j++ {
			if x.SumOf(j) != y.SumOf(j) {
				return false
			}
			for k := 0; k < 2; k++ {
				if x.QuadOf(j, k) != y.QuadOf(j, k) {
					return false
				}
			}
		}
		return true
	}
	if !fused.Equal(plain, eq) {
		t.Fatalf("fused %v != plain %v", fused, plain)
	}
}

func TestReserveAndClear(t *testing.T) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A"))
	r.Merge(Ints(1), 1)
	r.Reserve(100)
	if p, ok := r.Get(Ints(1)); !ok || p != 1 {
		t.Fatal("Reserve lost an entry")
	}
	r.Merge(Ints(2), 2)
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear left entries")
	}
	r.Merge(Ints(3), 3)
	if p, ok := r.Get(Ints(3)); !ok || p != 3 {
		t.Error("relation unusable after Clear")
	}
}

func TestProjectorAppendTo(t *testing.T) {
	proj := MustProjector(NewSchema("A", "B", "C"), NewSchema("C", "A"))
	dst := Ints(9)
	dst = proj.AppendTo(dst, Ints(1, 2, 3))
	if !slices.Equal(dst, Ints(9, 3, 1)) {
		t.Errorf("AppendTo = %v", dst)
	}
}

func TestIndexProbeYieldsEntries(t *testing.T) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	merge := indexedMerge(ir)
	merge(Ints(1, 10), 2)
	merge(Ints(1, 20), 3)
	merge(Ints(2, 30), 4)
	ix := ir.EnsureIndex(NewSchema("A"))

	var buf []byte
	buf = Ints(1).AppendKey(buf[:0])
	sum := int64(0)
	for en := range ix.ProbeBytes(buf).All() {
		sum += en.Payload
		if en.Key() == "" {
			t.Error("entry key not populated")
		}
	}
	if sum != 5 {
		t.Errorf("probed payload sum = %d, want 5", sum)
	}
	// Payload updates are visible through the index without re-adding.
	merge(Ints(1, 10), 5)
	sum = 0
	for en := range ix.ProbeBytes(buf).All() {
		sum += en.Payload
	}
	if sum != 10 {
		t.Errorf("probed payload sum after update = %d, want 10", sum)
	}
}
