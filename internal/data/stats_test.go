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

// TestObserveRelationAndDeltas covers the two writers a collector has: an
// ANALYZE pass (ObserveRelation) and a db.DB's ingest (ObserveDeltaTuples),
// an insert batch and then its deletion.
func TestObserveRelationAndDeltas(t *testing.T) {
	st := NewStats()
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B"))
	for i := 0; i < 10; i++ {
		r.Merge(Ints(int64(i%3), int64(i)), 1)
	}
	ObserveRelation(st, "R", r)
	rs := st.Lookup("R")
	if rs == nil || rs.Live != 10 || rs.DeltaTuples != 0 {
		t.Fatalf("seeded stats = %+v", rs)
	}
	if d := rs.Distinct("A"); d < 2 || d > 5 {
		t.Fatalf("distinct(A)=%v, want ~3", d)
	}

	ins := []Tuple{Ints(7, 7), Ints(8, 7), Ints(9, 7)}
	ObserveDeltaTuples(st, "R", r.Schema(), ins, 1)
	if rs.Live != 13 || rs.DeltaTuples != 3 {
		t.Fatalf("after inserts live=%d deltas=%d, want 13 and 3", rs.Live, rs.DeltaTuples)
	}
	if d := rs.Distinct("A"); d < 5 || d > 8 {
		t.Fatalf("distinct(A)=%v after inserts, want ~6", d)
	}
	if st.TotalDeltaTuples() != 3 {
		t.Fatalf("total delta tuples = %d", st.TotalDeltaTuples())
	}
	before := rs.Distinct("A")
	ObserveDeltaTuples(st, "R", r.Schema(), ins[:2], -1)
	if rs.Live != 11 || rs.DeltaTuples != 5 {
		t.Fatalf("after deletes live=%d deltas=%d, want 11 and 5", rs.Live, rs.DeltaTuples)
	}
	if got := rs.Distinct("A"); got != before {
		t.Fatalf("a deletion moved the monotone sketch: %v -> %v", before, got)
	}
	// Deleting more than was ever seen floors the cardinality at zero.
	ObserveDeltaTuples(st, "R", r.Schema(), make([]Tuple, 20), -1)
	if rs.Live != 0 {
		t.Fatalf("live=%d after over-deletion", rs.Live)
	}
}
