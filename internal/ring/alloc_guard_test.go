package ring

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestAllocGuardRingOps bounds the objects Cofactor's Add, Mul and Neg
// allocate per call, which build their result in one fresh triple: its S and
// Q share one backing array, and its Vars is allocated only when neither
// operand's variables cover the result. It also checks that the operations
// write no operand and that a result shares no S or Q storage with an
// operand it is not.
func TestAllocGuardRingOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cf := Cofactor{}
	shapes := []struct {
		name          string
		a, b          Triple
		add, mul, neg float64 // the bounds on allocations per call
	}{
		{"two lifts, disjoint", LiftValue(0, 2), LiftValue(1, 3), 2, 2, 1},
		{"equal Vars, k = 5", intTriple(rng, seqVars(0, 5)), intTriple(rng, seqVars(0, 5)), 1, 1, 1},
		{"equal Vars, k = 43", intTriple(rng, seqVars(0, 43)), intTriple(rng, seqVars(0, 43)), 1, 1, 1},
		{"disjoint, 5 + 5", intTriple(rng, seqVars(0, 5)), intTriple(rng, seqVars(5, 10)), 2, 2, 1},
		{"overlapping, 10 and 10 sharing 5", intTriple(rng, seqVars(0, 10)), intTriple(rng, seqVars(5, 15)), 2, 2, 1},
		{"scalar and 10 variables", Triple{C: 3}, intTriple(rng, seqVars(0, 10)), 1, 1, 0},
		{"two scalars", Triple{C: 3}, Triple{C: -2}, 0, 0, 0},
	}
	for _, sh := range shapes {
		a, b := sh.a, sh.b
		wantA, wantB := cloneTriple(a), cloneTriple(b)
		var sink Triple
		for _, op := range []struct {
			name  string
			run   func() Triple
			bound float64
		}{
			{"Add", func() Triple { return cf.Add(a, b) }, sh.add},
			{"Mul", func() Triple { return cf.Mul(a, b) }, sh.mul},
			{"Neg", func() Triple { return cf.Neg(a) }, sh.neg},
		} {
			got := op.run()
			tripleBitsEqual(t, sh.name+": "+op.name+" wrote a", a, wantA)
			tripleBitsEqual(t, sh.name+": "+op.name+" wrote b", b, wantB)
			for _, x := range []Triple{a, b} {
				if !sameTriple(got, x) && (overlaps(got.S, x.S) || overlaps(got.S, x.Q) || overlaps(got.Q, x.S) || overlaps(got.Q, x.Q)) {
					t.Errorf("%s: %s's result shares S or Q storage with an operand", sh.name, op.name)
				}
			}
			if n := testing.AllocsPerRun(100, func() { sink = op.run() }); n > op.bound {
				t.Errorf("%s: %s allocates %v objects per call, want <= %v", sh.name, op.name, n, op.bound)
			}
		}
		_ = sink
	}
}

// sameTriple reports whether x is y returned whole: the same count and the
// same S and Q slices.
func sameTriple(x, y Triple) bool {
	return x.C == y.C && unsafe.SliceData(x.S) == unsafe.SliceData(y.S) && len(x.S) == len(y.S) &&
		unsafe.SliceData(x.Q) == unsafe.SliceData(y.Q) && len(x.Q) == len(y.Q)
}

// overlaps reports whether the backing storage of x and y, up to their
// capacities, has an element in common.
func overlaps(x, y []float64) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	x0, y0 := uintptr(unsafe.Pointer(unsafe.SliceData(x))), uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(cap(y))*8 && y0 < x0+uintptr(cap(x))*8
}
