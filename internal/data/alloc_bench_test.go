package data

import (
	"testing"

	"fivm/internal/ring"
)

// benchTuples builds n distinct tuples over (A, B) with mixed value kinds,
// exercising every branch of the key codec.
func benchTuples(n int) []Tuple {
	out := make([]Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = Tuple{Int(int64(i % 97)), Int(int64(i / 97)), String("s")}
	}
	return out
}

func BenchmarkTupleKey(b *testing.B) {
	tuples := benchTuples(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tuples[i%len(tuples)].Key()
	}
}

// BenchmarkTupleAppendKey is the allocation-free codec path: encoding into a
// reused scratch buffer.
func BenchmarkTupleAppendKey(b *testing.B) {
	tuples := benchTuples(256)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tuples[i%len(tuples)].AppendKey(buf[:0])
	}
	_ = buf
}

// BenchmarkRelationMerge measures steady-state Merge into existing keys: the
// hot path of delta propagation once the views have warmed up.
func BenchmarkRelationMerge(b *testing.B) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B", "C"))
	tuples := benchTuples(1024)
	for _, t := range tuples {
		r.Merge(t, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Merge(tuples[i%len(tuples)], 1)
	}
}

// BenchmarkRelationMergeTripleSteady measures payload accumulation onto an
// existing key for the cofactor ring — the operation the in-place path
// makes allocation-free.
func BenchmarkRelationMergeTripleSteady(b *testing.B) {
	cf := ring.Cofactor{}
	r := NewRelation[ring.Triple](cf, NewSchema("A"))
	tup := Ints(1)
	d := cf.Mul(ring.LiftValue(0, 2), cf.Mul(ring.LiftValue(1, 3), ring.LiftValue(2, 4)))
	r.Merge(tup, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Merge(tup, d)
	}
}

// BenchmarkRelationGet measures point lookups by tuple.
func BenchmarkRelationGet(b *testing.B) {
	r := NewRelation[int64](ring.Int{}, NewSchema("A", "B", "C"))
	tuples := benchTuples(1024)
	for _, t := range tuples {
		r.Merge(t, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get(tuples[i%len(tuples)])
	}
}

// BenchmarkIndexProbe measures a secondary-index probe by encoded key and
// the walk over its bucket (~8 entries each).
func BenchmarkIndexProbe(b *testing.B) {
	ir := NewIndexedRelation(NewRelation[int64](ring.Int{}, NewSchema("A", "B")))
	merge := indexedMerge(ir)
	for i := 0; i < 4096; i++ {
		merge(Ints(int64(i%509), int64(i)), 1)
	}
	ix := ir.EnsureIndex(NewSchema("A"))
	var buf []byte
	probe := make([]Tuple, 509)
	for i := range probe {
		probe[i] = Ints(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := int64(0)
	for i := 0; i < b.N; i++ {
		buf = probe[i%len(probe)].AppendKey(buf[:0])
		for e := range ix.ProbeBytes(buf).All() {
			sum += e.Payload
		}
	}
	_ = sum
}
