package ring

import "testing"

// benchTriple builds a k-variable triple with dense S and Q blocks, the
// shape of an upper-view cofactor payload.
func benchTriple(k int) Triple {
	t := Triple{C: 2}
	for i := 0; i < k; i++ {
		t.Vars = append(t.Vars, int32(i))
		t.S = append(t.S, float64(i+1))
	}
	for i := 0; i < k*k; i++ {
		t.Q = append(t.Q, float64(i%7))
	}
	return t
}

// BenchmarkTripleAdd measures Add on 16-variable triples: the in-place sum
// run into a fresh triple (one S and Q array per call).
func BenchmarkTripleAdd(b *testing.B) {
	cf := Cofactor{}
	acc, d := benchTriple(16), benchTriple(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc = cf.Add(acc, d)
	}
	_ = acc
}

// BenchmarkTripleAddInto measures steady-state in-place accumulation: the
// accumulator covers the operand's variables, so no allocation occurs.
func BenchmarkTripleAddInto(b *testing.B) {
	acc, d := benchTriple(16), benchTriple(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.addInto(&d)
	}
}

// BenchmarkTripleMul measures Mul, the ring product into a fresh triple, of
// an 8-variable payload with a 1-variable lifting, the dominant product shape
// on delta paths.
func BenchmarkTripleMul(b *testing.B) {
	cf := Cofactor{}
	p, l := benchTriple(8), LiftValue(9, 3)
	b.ReportAllocs()
	var out Triple
	for i := 0; i < b.N; i++ {
		out = cf.Mul(p, l)
	}
	_ = out
}

// BenchmarkTripleMulInto measures the same product computed into a reused
// destination.
func BenchmarkTripleMulInto(b *testing.B) {
	cf := Cofactor{}
	p, l := benchTriple(8), LiftValue(9, 3)
	var dst Triple
	cf.MulInto(&dst, &p, &l) // warm capacity
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cf.MulInto(&dst, &p, &l)
	}
}

// BenchmarkTripleMulAddInto measures the fused multiply-accumulate used by
// view merges: dst += p * lift, fully in place.
func BenchmarkTripleMulAddInto(b *testing.B) {
	p, l := benchTriple(8), LiftValue(9, 3)
	var dst Triple
	dst.mulAddInto(&p, &l) // warm coverage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.mulAddInto(&p, &l)
	}
}

// BenchmarkCofactorAxpy measures the dense scaled-accumulate path of the
// cofactor ring: d += c*b for a constant c and a width-16 triple b whose
// variables d already covers, which is one axpy over the 16-entry sum vector
// and one over the 256-entry cofactor matrix (the scaleScatterAdd fast path
// behind every scalar-weighted payload merge).
func BenchmarkCofactorAxpy(b *testing.B) {
	cf := Cofactor{}
	w := cf.One()
	for j := 0; j < 16; j++ {
		w = cf.Mul(w, LiftValue(j, float64(j)+0.5))
	}
	scalar := Triple{C: 2}
	var d Triple
	cf.MulInto(&d, &scalar, &w) // d now covers w's variables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.MulAddInto(&d, &scalar, &w)
	}
}

// BenchmarkRank1SymUpdate measures the symmetric rank-1 outer-product kernel:
// d += x*y for two width-16 triples over the same variables as d, whose
// dominant cost is the sa·sbᵀ + sb·saᵀ update of the 16×16 cofactor matrix
// (the inner loop of every pairwise view product in regression maintenance).
func BenchmarkRank1SymUpdate(b *testing.B) {
	cf := Cofactor{}
	mk := func(off float64) Triple {
		t := cf.One()
		for j := 0; j < 16; j++ {
			t = cf.Mul(t, LiftValue(j, off+float64(j)))
		}
		return t
	}
	x, y := mk(0.5), mk(1.25)
	var d Triple
	cf.MulInto(&d, &x, &y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.MulAddInto(&d, &x, &y)
	}
}
