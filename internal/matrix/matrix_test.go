package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{3, 4, 5}, {64, 64, 64}, {70, 33, 91}, {1, 7, 1}} {
		a := Random(dims[0], dims[1], rng)
		b := Random(dims[1], dims[2], rng)
		got := a.Mul(b)
		want := naiveMul(a, b)
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("Mul %v: max diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestMulVecAndVecMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(6, 4, rng)
	v := []float64{1, -2, 3, 0.5}
	got := a.MulVec(v)
	for i := 0; i < a.Rows; i++ {
		want := 0.0
		for j := range v {
			want += a.At(i, j) * v[j]
		}
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want)
		}
	}
	u := []float64{2, 0, -1, 1, 0.25, -3}
	got = a.VecMul(u)
	for j := 0; j < a.Cols; j++ {
		want := 0.0
		for i := range u {
			want += u[i] * a.At(i, j)
		}
		if math.Abs(got[j]-want) > 1e-12 {
			t.Fatalf("VecMul[%d] = %g, want %g", j, got[j], want)
		}
	}
}

func TestOuterAndAddOuter(t *testing.T) {
	u := []float64{1, 2}
	v := []float64{3, 4, 5}
	o := Outer(u, v)
	if o.At(1, 2) != 10 || o.At(0, 0) != 3 {
		t.Fatalf("Outer = %v", o.Data)
	}
	m := NewDense(2, 3)
	m.AddOuterInPlace(u, v)
	if !m.EqualApprox(o, 0) {
		t.Error("AddOuterInPlace != Outer")
	}
}

func TestAddSubScaleTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(4, 5, rng)
	b := Random(4, 5, rng)
	if d := a.Add(b).Sub(b).MaxAbsDiff(a); d > 1e-12 {
		t.Errorf("Add/Sub roundtrip diff %g", d)
	}
	if d := a.Scale(2).Sub(a).MaxAbsDiff(a); d > 1e-12 {
		t.Errorf("Scale diff %g", d)
	}
	tt := a.Transpose().Transpose()
	if !tt.EqualApprox(a, 0) {
		t.Error("double transpose != identity")
	}
	at := a.Transpose()
	if at.Rows != a.Cols || at.At(2, 3) != a.At(3, 2) {
		t.Error("Transpose wrong")
	}
}

func TestRowColClone(t *testing.T) {
	a := NewDense(2, 3)
	a.Set(1, 2, 7)
	if a.Row(1)[2] != 7 || a.Col(2)[1] != 7 {
		t.Error("Row/Col")
	}
	c := a.Clone()
	c.Set(0, 0, 9)
	if a.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
}

// --- chain ----------------------------------------------------------------

func TestChainOrderCLRS(t *testing.T) {
	// CLRS example: dimensions 30x35, 35x15, 15x5, 5x10, 10x20, 20x25 has
	// optimal cost 15125.
	cost, _ := ChainOrder([]int{30, 35, 15, 5, 10, 20, 25})
	if cost != 15125 {
		t.Errorf("ChainOrder cost = %d, want 15125", cost)
	}
}

func TestMulChainOptimalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ms := []*Dense{Random(8, 3, rng), Random(3, 9, rng), Random(9, 2, rng), Random(2, 6, rng)}
	naive := MulChain(ms...)
	opt := MulChainOptimal(ms...)
	if !opt.EqualApprox(naive, 1e-9) {
		t.Errorf("optimal order result differs: %g", opt.MaxAbsDiff(naive))
	}
}

func TestChainOrderTrivial(t *testing.T) {
	if cost, _ := ChainOrder([]int{5, 7}); cost != 0 {
		t.Errorf("single matrix cost = %d", cost)
	}
}

// --- decompose --------------------------------------------------------------

func TestDecomposeExactRank(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range []int{1, 2, 5} {
		m, _ := RandomRank(20, 16, r, rng)
		terms := Decompose(m, 20, 1e-10)
		if len(terms) > r {
			t.Errorf("rank-%d matrix decomposed into %d terms", r, len(terms))
		}
		back := Recompose(terms, 20, 16)
		if d := back.MaxAbsDiff(m); d > 1e-8 {
			t.Errorf("rank-%d recompose diff %g", r, d)
		}
	}
}

func TestDecomposeRespectsMaxRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := Random(10, 10, rng) // full rank almost surely
	terms := Decompose(m, 3, 0)
	if len(terms) != 3 {
		t.Errorf("maxRank not respected: %d terms", len(terms))
	}
}

func TestDecomposeZeroMatrix(t *testing.T) {
	if terms := Decompose(NewDense(4, 4), 4, 0); len(terms) != 0 {
		t.Errorf("zero matrix produced %d terms", len(terms))
	}
}

func TestNormAndEqualApprox(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	if math.Abs(m.Norm()-5) > 1e-12 {
		t.Errorf("Norm = %g", m.Norm())
	}
	o := m.Clone()
	o.Set(0, 1, 1e-13)
	if !m.EqualApprox(o, 1e-12) {
		t.Error("EqualApprox tolerance")
	}
	if m.EqualApprox(NewDense(3, 3), 1) {
		t.Error("shape mismatch should not be equal")
	}
}
