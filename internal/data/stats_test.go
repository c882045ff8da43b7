package data

import (
	"math"
	"testing"

	"fivm/internal/ring"
)

func TestVarSketchDistinct(t *testing.T) {
	var s VarSketch
	if got := s.Distinct(); got != 0 {
		t.Fatalf("empty sketch distinct = %v", got)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(Int(int64(i)))
	}
	// Repeated observations must not move the estimate.
	before := s.Distinct()
	for i := 0; i < 1000; i++ {
		s.Observe(Int(int64(i)))
	}
	if got := s.Distinct(); got != before {
		t.Fatalf("repeat observation moved estimate %v -> %v", before, got)
	}
	if before < 800 || before > 1250 {
		t.Fatalf("distinct estimate %v for 1000 values out of range", before)
	}
}

func TestVarSketchSaturates(t *testing.T) {
	var s VarSketch
	for i := 0; i < 1_000_000; i++ {
		s.Observe(Int(int64(i)))
	}
	got := s.Distinct()
	if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("saturated sketch returned %v", got)
	}
}

// TestObserveRelationAndDeltas covers a collector's one writer, an ANALYZE
// pass (ObserveRelation): it counts the stored keys, sketches each column and
// leaves the delta count, which only a caller's own pass sets, at zero.
func TestObserveRelationAndDeltas(t *testing.T) {
	st := NewStats()
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	for i := 0; i < 10; i++ {
		r.Merge(Ints(int64(i%3), int64(i)), 1)
	}
	ObserveRelation(st, "R", r)
	rs := st.Lookup("R")
	if rs == nil || rs.Live != 10 || rs.DeltaTuples != 0 || st.TotalDeltaTuples() != 0 {
		t.Fatalf("seeded stats = %+v", rs)
	}
	if d := rs.Distinct("A"); d < 2 || d > 5 {
		t.Fatalf("distinct(A)=%v, want ~3", d)
	}
}
