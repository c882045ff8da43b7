package ring

import (
	"math/rand"
	"testing"
)

// TestMutableOf checks which rings advertise the in-place extension.
func TestMutableOf(t *testing.T) {
	if MutableOf[int64](Int{}) == nil {
		t.Error("Int should be Mutable")
	}
	if MutableOf[float64](Float{}) == nil {
		t.Error("Float should be Mutable")
	}
	if MutableOf[Triple](Cofactor{}) == nil {
		t.Error("Cofactor should be Mutable")
	}
	if MutableOf[DegMap](DegreeMap{}) == nil {
		t.Error("DegreeMap should be Mutable")
	}
}

// checkMutableMatchesImmutable drives the in-place operations of a ring
// against Add and Mul on random values, including repeated accumulation into
// one destination (the steady-state pattern of view payload maintenance).
// Where Add and Mul run the in-place operations on a fresh payload, this
// checks the accumulation and reuse of a destination; the dense oracle in
// TestCofactorMulMatchesDefinition checks the operations themselves.
func checkMutableMatchesImmutable[T any](t *testing.T, r Ring[T], gen func(*rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		a, b := gen(rng), gen(rng)

		var cp T
		r.CopyInto(&cp, a)
		if !eq(cp, a) {
			t.Fatalf("CopyInto: %v != %v", cp, a)
		}

		// IsOne detects exactly the multiplicative identity value.
		one := r.One()
		if !r.IsOne(&one) {
			t.Fatalf("IsOne(One()) = false")
		}

		// AddInto on an owned copy matches Add.
		r.AddInto(&cp, b)
		if want := r.Add(a, b); !eq(cp, want) {
			t.Fatalf("AddInto(%v, %v) = %v, want %v", a, b, cp, want)
		}

		// MulInto matches Mul.
		var mp T
		r.MulInto(&mp, &a, &b)
		if want := r.Mul(a, b); !eq(mp, want) {
			t.Fatalf("MulInto(%v, %v) = %v, want %v", a, b, mp, want)
		}

		// MulAddInto matches Add(dst, Mul(a, b)), reusing the dirty mp as a
		// fresh accumulation base.
		c := gen(rng)
		var acc T
		r.CopyInto(&acc, c)
		r.MulAddInto(&acc, &a, &b)
		if want := r.Add(c, r.Mul(a, b)); !eq(acc, want) {
			t.Fatalf("MulAddInto(%v; %v, %v) = %v, want %v", c, a, b, acc, want)
		}

		// A long accumulation chain into one destination matches the fold
		// of Add and Mul.
		var chain T
		z := r.Zero()
		r.CopyInto(&chain, z)
		want := r.Zero()
		for j := 0; j < 6; j++ {
			x, y := gen(rng), gen(rng)
			r.MulAddInto(&chain, &x, &y)
			want = r.Add(want, r.Mul(x, y))
		}
		if !eq(chain, want) {
			t.Fatalf("accumulation chain = %v, want %v", chain, want)
		}
	}
}

func TestCofactorMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[Triple](t, Cofactor{}, genTriple, tripleEq)
}

func TestIntMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[int64](t, Int{},
		func(r *rand.Rand) int64 { return int64(r.Intn(9) - 4) },
		func(a, b int64) bool { return a == b })
}

func TestFloatMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[float64](t, Float{},
		func(r *rand.Rand) float64 { return float64(r.Intn(9) - 4) },
		func(a, b float64) bool { return a == b })
}

func TestDegreeMapMutableMatchesImmutable(t *testing.T) {
	checkMutableMatchesImmutable[DegMap](t, DegreeMap{}, genDegMap, degMapEq)
}

// TestCopyIntoIsDeep checks that mutating a copy leaves the source intact —
// the ownership guarantee relations rely on.
func TestCopyIntoIsDeep(t *testing.T) {
	cf := Cofactor{}
	src := LiftValue(1, 3)
	var cp Triple
	cf.CopyInto(&cp, src)
	cf.AddInto(&cp, LiftValue(2, 5))
	if !tripleEq(src, LiftValue(1, 3)) {
		t.Fatalf("source triple mutated through copy: %v", src)
	}

	dm := DegreeMap{}
	srcM := LiftDegMap(0, 2)
	var cpM DegMap
	dm.CopyInto(&cpM, srcM)
	dm.AddInto(&cpM, LiftDegMap(1, 3))
	if !degMapEq(srcM, LiftDegMap(0, 2)) {
		t.Fatalf("source map mutated through copy: %v", srcM)
	}
}

// TestTripleAddIntoSteadyStateNoAlloc checks the headline property: once the
// accumulator covers the operand's variables, AddInto and MulAddInto do not
// allocate.
func TestTripleAddIntoSteadyStateNoAlloc(t *testing.T) {
	cf := Cofactor{}
	acc := cf.Zero()
	b := cf.Mul(LiftValue(0, 2), cf.Mul(LiftValue(1, 3), LiftValue(2, 4)))
	acc.addInto(&b) // warm: acc now covers b's variables
	if n := testing.AllocsPerRun(100, func() { acc.addInto(&b) }); n != 0 {
		t.Errorf("steady-state AddInto allocates %.1f/op", n)
	}
	x, y := LiftValue(0, 2), cf.Mul(LiftValue(1, 3), LiftValue(2, 4))
	if n := testing.AllocsPerRun(100, func() { acc.mulAddInto(&x, &y) }); n != 0 {
		t.Errorf("steady-state MulAddInto allocates %.1f/op", n)
	}
	var dst Triple
	cf.MulInto(&dst, &x, &y) // warm dst capacity
	if n := testing.AllocsPerRun(100, func() { cf.MulInto(&dst, &x, &y) }); n != 0 {
		t.Errorf("steady-state MulInto allocates %.1f/op", n)
	}
}
