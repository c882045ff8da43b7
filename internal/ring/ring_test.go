package ring

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// --- helpers ------------------------------------------------------------

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

// checkRingAxioms exercises the ring laws on randomly generated values.
func checkRingAxioms[T any](t *testing.T, r Ring[T], gen func(*rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)

		if !eq(r.Add(a, b), r.Add(b, a)) {
			t.Fatalf("Add not commutative: %v + %v", a, b)
		}
		if !eq(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
			t.Fatalf("Add not associative: %v %v %v", a, b, c)
		}
		if !eq(r.Add(a, r.Zero()), a) || !eq(r.Add(r.Zero(), a), a) {
			t.Fatalf("Zero not additive identity for %v", a)
		}
		if !r.IsZero(r.Add(a, r.Neg(a))) {
			t.Fatalf("Neg not additive inverse for %v: %v", a, r.Add(a, r.Neg(a)))
		}
		if !eq(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c))) {
			t.Fatalf("Mul not associative: %v %v %v", a, b, c)
		}
		if !eq(r.Mul(a, r.One()), a) || !eq(r.Mul(r.One(), a), a) {
			t.Fatalf("One not multiplicative identity for %v", a)
		}
		left := r.Mul(a, r.Add(b, c))
		right := r.Add(r.Mul(a, b), r.Mul(a, c))
		if !eq(left, right) {
			t.Fatalf("Mul does not left-distribute: a=%v b=%v c=%v\n got %v\nwant %v", a, b, c, left, right)
		}
		left = r.Mul(r.Add(a, b), c)
		right = r.Add(r.Mul(a, c), r.Mul(b, c))
		if !eq(left, right) {
			t.Fatalf("Mul does not right-distribute: a=%v b=%v c=%v", a, b, c)
		}
		if !r.IsZero(r.Mul(a, r.Zero())) || !r.IsZero(r.Mul(r.Zero(), a)) {
			t.Fatalf("Zero not annihilating for %v", a)
		}
		if !r.IsZero(r.Zero()) {
			t.Fatal("Zero is not IsZero")
		}
	}
}

// --- Int / Float ---------------------------------------------------------

func TestIntRingAxioms(t *testing.T) {
	checkRingAxioms[int64](t, Int{},
		func(r *rand.Rand) int64 { return int64(r.Intn(201) - 100) },
		func(a, b int64) bool { return a == b })
}

func TestIntRingQuickProperties(t *testing.T) {
	r := Int{}
	if err := quick.Check(func(a, b int64) bool {
		return r.Add(a, b) == a+b && r.Mul(a, b) == a*b && r.Neg(a) == -a
	}, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

func TestFloatRingAxioms(t *testing.T) {
	// Small integral floats keep floating-point arithmetic exact, so the
	// ring laws hold exactly.
	checkRingAxioms[float64](t, Float{},
		func(r *rand.Rand) float64 { return float64(r.Intn(41) - 20) },
		func(a, b float64) bool { return a == b })
}

// --- Cofactor ring -------------------------------------------------------

// genTriple builds a random sparse triple over variables 0..3 with small
// integral values (exact in float64).
func genTriple(r *rand.Rand) Triple {
	switch r.Intn(4) {
	case 0:
		return Triple{} // zero
	case 1:
		return Triple{C: float64(r.Intn(9) - 4)} // scalar
	}
	// 1-3 lifted variables combined via ring ops to stay well-formed.
	out := LiftValue(r.Intn(4), float64(r.Intn(7)-3))
	n := r.Intn(3)
	cf := Cofactor{}
	for i := 0; i < n; i++ {
		next := LiftValue(r.Intn(4), float64(r.Intn(7)-3))
		if r.Intn(2) == 0 {
			out = cf.Add(out, next)
		} else {
			out = cf.Mul(out, next)
		}
	}
	return out
}

// tripleEq compares triples by their dense expansion over 4 variables.
func tripleEq(a, b Triple) bool {
	if a.C != b.C {
		return false
	}
	const m = 4
	as, bs := a.ExpandSum(m), b.ExpandSum(m)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	aq, bq := a.ExpandQ(m), b.ExpandQ(m)
	for i := range aq {
		if aq[i] != bq[i] {
			return false
		}
	}
	return true
}

func TestCofactorRingAxioms(t *testing.T) {
	checkRingAxioms[Triple](t, Cofactor{}, genTriple, tripleEq)
}

func TestCofactorMulCommutative(t *testing.T) {
	// The degree-m matrix ring of Definition 6.2 is commutative.
	cf := Cofactor{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b := genTriple(rng), genTriple(rng)
		if !tripleEq(cf.Mul(a, b), cf.Mul(b, a)) {
			t.Fatalf("Mul not commutative: %v * %v", a, b)
		}
	}
}

func TestCofactorLiftValue(t *testing.T) {
	l := LiftValue(2, 3)
	if l.C != 1 {
		t.Errorf("count = %v, want 1", l.C)
	}
	if got := l.SumOf(2); got != 3 {
		t.Errorf("SumOf(2) = %v, want 3", got)
	}
	if got := l.QuadOf(2, 2); got != 9 {
		t.Errorf("QuadOf(2,2) = %v, want 9", got)
	}
	if got := l.SumOf(1); got != 0 {
		t.Errorf("SumOf(1) = %v, want 0", got)
	}
}

func TestCofactorMulMatchesDefinition(t *testing.T) {
	// Check Definition 6.2 on a hand-computed example resembling the
	// paper's Example 6.3: (2, s, Q) * (1, s', Q').
	cf := Cofactor{}
	a := cf.Add(LiftValue(0, 2), LiftValue(0, 3)) // two D-values 2 and 3
	b := LiftValue(1, 5)                          // one E-value 5

	got := cf.Mul(a, b)
	if got.C != 2 {
		t.Errorf("count = %v, want 2", got.C)
	}
	// s = cb*sa + ca*sb = 1*(2+3) at var0, 2*5 at var1.
	if got.SumOf(0) != 5 || got.SumOf(1) != 10 {
		t.Errorf("sums = %v/%v, want 5/10", got.SumOf(0), got.SumOf(1))
	}
	// Q(0,0) = 1*(4+9) = 13; Q(1,1) = 2*25 = 50; Q(0,1) = sa0*sb1 = 5*5 = 25.
	if got.QuadOf(0, 0) != 13 {
		t.Errorf("Q(0,0) = %v, want 13", got.QuadOf(0, 0))
	}
	if got.QuadOf(1, 1) != 50 {
		t.Errorf("Q(1,1) = %v, want 50", got.QuadOf(1, 1))
	}
	if got.QuadOf(0, 1) != 25 || got.QuadOf(1, 0) != 25 {
		t.Errorf("Q(0,1)/Q(1,0) = %v/%v, want 25/25", got.QuadOf(0, 1), got.QuadOf(1, 0))
	}

	// The same definition as a property: Add, Neg and Mul equal a dense
	// m-vector / m×m evaluation over random pairs. Entries are small
	// integers, so every float operation on both sides is exact.
	rng := rand.New(rand.NewSource(62))
	var pairs [][2]Triple
	for i := 0; i < 200; i++ {
		pairs = append(pairs, [2]Triple{genTriple(rng), genTriple(rng)})
	}
	for _, vs := range [][2][]int32{
		{{0, 2, 4}, {1, 3, 5}},                   // disjoint
		{{0, 1, 2, 7}, {2, 7, 9}},                // overlapping
		{{3, 5, 8}, {3, 5, 8}},                   // equal
		{{}, {1, 6}},                             // scalar and variables
		{{2, 9}, {}},                             // variables and scalar
		{seqVars(0, 30), seqVars(30, 60)},        // union of 60 > scatterBufLen
		{seqVars(0, 40), seqVars(20, 64)},        // overlapping union of 64
		{seqVars(10, 60), seqVars(10, 60)},       // equal, wider than the buffers
		{seqVars(0, 50), []int32{3, 49, 63}},     // one covers most of the other
		{[]int32{60}, seqVars(0, scatterBufLen)}, // a lift beside a full buffer
	} {
		for i := 0; i < 20; i++ {
			pairs = append(pairs, [2]Triple{intTriple(rng, vs[0]), intTriple(rng, vs[1])})
		}
	}
	const m = 64
	for i, p := range pairs {
		a, b := p[0], p[1]
		da, db := denseOf(a, m), denseOf(b, m)
		checkDense(t, i, "Add", cf.Add(a, b), da.add(db), m)
		checkDense(t, i, "Neg", cf.Neg(a), da.neg(), m)
		checkDense(t, i, "Mul", cf.Mul(a, b), da.mul(db, m), m)
	}
}

// denseTriple is a triple expanded over all m variables: the form in which
// Definition 6.2 states the ring operations.
type denseTriple struct {
	c    float64
	s, q []float64
}

func denseOf(a Triple, m int) denseTriple {
	return denseTriple{a.C, a.ExpandSum(m), a.ExpandQ(m)}
}

func (a denseTriple) add(b denseTriple) denseTriple {
	out := denseTriple{a.c + b.c, make([]float64, len(a.s)), make([]float64, len(a.q))}
	for i := range a.s {
		out.s[i] = a.s[i] + b.s[i]
	}
	for i := range a.q {
		out.q[i] = a.q[i] + b.q[i]
	}
	return out
}

func (a denseTriple) neg() denseTriple {
	out := denseTriple{-a.c, make([]float64, len(a.s)), make([]float64, len(a.q))}
	for i := range a.s {
		out.s[i] = -a.s[i]
	}
	for i := range a.q {
		out.q[i] = -a.q[i]
	}
	return out
}

// mul is Definition 6.2: (ca*cb, cb*sa + ca*sb, cb*Qa + ca*Qb + sa sbᵀ + sb saᵀ).
func (a denseTriple) mul(b denseTriple, m int) denseTriple {
	out := denseTriple{a.c * b.c, make([]float64, m), make([]float64, m*m)}
	for i := 0; i < m; i++ {
		out.s[i] = b.c*a.s[i] + a.c*b.s[i]
		for j := 0; j < m; j++ {
			out.q[i*m+j] = b.c*a.q[i*m+j] + a.c*b.q[i*m+j] + a.s[i]*b.s[j] + b.s[i]*a.s[j]
		}
	}
	return out
}

// checkDense fails unless got is a well-formed triple (sorted distinct Vars,
// k-length S, k²-length Q) whose dense form equals want exactly.
func checkDense(t *testing.T, pair int, op string, got Triple, want denseTriple, m int) {
	t.Helper()
	k := len(got.Vars)
	for i := 1; i < k; i++ {
		if got.Vars[i-1] >= got.Vars[i] {
			t.Fatalf("pair %d: %s: Vars %v not sorted and distinct", pair, op, got.Vars)
		}
	}
	if len(got.S) != k || len(got.Q) != k*k {
		t.Fatalf("pair %d: %s: %d variables with len(S) %d, len(Q) %d", pair, op, k, len(got.S), len(got.Q))
	}
	if d := denseOf(got, m); d.c != want.c || !slices.Equal(d.s, want.s) || !slices.Equal(d.q, want.q) {
		t.Fatalf("pair %d: %s = %v, not Definition 6.2's (c %v, s %v)", pair, op, got, want.c, want.s)
	}
}

// seqVars returns the variables lo..hi-1.
func seqVars(lo, hi int32) []int32 {
	var vs []int32
	for v := lo; v < hi; v++ {
		vs = append(vs, v)
	}
	return vs
}

// intTriple builds a triple over vars with small integer entries, about a
// quarter of them zero, and a symmetric Q.
func intTriple(rng *rand.Rand, vars []int32) Triple {
	k := len(vars)
	small := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return float64(rng.Intn(11) - 5)
	}
	a := Triple{C: small(), Vars: vars, S: make([]float64, k), Q: make([]float64, k*k)}
	for i := 0; i < k; i++ {
		a.S[i] = small()
		for j := i; j < k; j++ {
			a.Q[i*k+j] = small()
			a.Q[j*k+i] = a.Q[i*k+j]
		}
	}
	return a
}

func TestCofactorSymmetry(t *testing.T) {
	cf := Cofactor{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := genTriple(rng)
		k := len(a.Vars)
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				if a.Q[x*k+y] != a.Q[y*k+x] {
					t.Fatalf("Q not symmetric: %v", a)
				}
			}
		}
		_ = cf
	}
}

func TestCofactorExpand(t *testing.T) {
	a := LiftValue(1, 4)
	s := a.ExpandSum(3)
	if !reflect.DeepEqual(s, []float64{0, 4, 0}) {
		t.Errorf("ExpandSum = %v", s)
	}
	q := a.ExpandQ(3)
	want := make([]float64, 9)
	want[1*3+1] = 16
	if !reflect.DeepEqual(q, want) {
		t.Errorf("ExpandQ = %v, want %v", q, want)
	}
}

func TestCofactorIsZeroDetectsResidues(t *testing.T) {
	cf := Cofactor{}
	// A triple with zero count but non-zero sums must not be zero.
	a := cf.Add(LiftValue(0, 2), cf.Neg(LiftValue(0, 3)))
	if a.C != 0 {
		t.Fatalf("count = %v, want 0", a.C)
	}
	if cf.IsZero(a) {
		t.Error("IsZero = true for triple with non-zero sums")
	}
	// Exact cancellation must be detected.
	b := cf.Add(LiftValue(0, 2), cf.Neg(LiftValue(0, 2)))
	if !cf.IsZero(b) {
		t.Errorf("IsZero = false for cancelled triple %v", b)
	}
}

func TestCofactorBytes(t *testing.T) {
	cf := Cofactor{}
	if cf.Bytes(Triple{}) <= 0 {
		t.Error("Bytes of zero triple should be positive (headers)")
	}
	a := LiftValue(0, 1)
	if cf.Bytes(a) <= cf.Bytes(Triple{}) {
		t.Error("Bytes should grow with payload size")
	}
}

// --- DegreeMap ring ------------------------------------------------------

func genDegMap(r *rand.Rand) DegMap {
	dm := DegreeMap{}
	switch r.Intn(4) {
	case 0:
		return dm.Zero()
	case 1:
		return DegMap{CountDeg: float64(r.Intn(9) - 4)}
	}
	out := LiftDegMap(r.Intn(4), float64(r.Intn(7)-3))
	n := r.Intn(3)
	for i := 0; i < n; i++ {
		next := LiftDegMap(r.Intn(4), float64(r.Intn(7)-3))
		if r.Intn(2) == 0 {
			out = dm.Add(out, next)
		} else {
			out = dm.Mul(out, next)
		}
	}
	return out
}

func degMapEq(a, b DegMap) bool {
	if len(a) != len(b) {
		// Allow zero-valued entries to be absent on either side.
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		for k, v := range b {
			if a[k] != v {
				return false
			}
		}
		return true
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestDegreeMapRingAxioms(t *testing.T) {
	// Note: Mul truncates above degree 2, which preserves the ring laws on
	// the tracked degree-≤2 subspace because degrees only grow under Mul.
	checkRingAxioms[DegMap](t, DegreeMap{}, genDegMap, degMapEq)
}

func TestDegreeMapMatchesCofactor(t *testing.T) {
	// The degree-map encoding and the cofactor ring compute the same
	// aggregates on the view-tree usage pattern, where each variable is
	// lifted exactly once per product (the two rings intentionally differ
	// on same-variable products, which never occur in view trees).
	// Cross-check them over random sum-of-lifts products with disjoint
	// variables per factor.
	cf := Cofactor{}
	dm := DegreeMap{}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		type pair struct {
			t Triple
			d DegMap
		}
		cur := pair{t: cf.One(), d: dm.One()}
		vars := rng.Perm(4)
		n := 1 + rng.Intn(4)
		for _, j := range vars[:n] {
			// factor = sum of 1-3 lifted values of variable j, as a view
			// produces when marginalizing j over several tuples.
			k := 1 + rng.Intn(3)
			factor := pair{t: cf.Zero(), d: dm.Zero()}
			for i := 0; i < k; i++ {
				x := float64(rng.Intn(7) - 3)
				factor = pair{t: cf.Add(factor.t, LiftValue(j, x)), d: dm.Add(factor.d, LiftDegMap(j, x))}
			}
			cur = pair{t: cf.Mul(cur.t, factor.t), d: dm.Mul(cur.d, factor.d)}
		}
		if got, want := cur.d[CountDeg], cur.t.C; got != want {
			t.Fatalf("trial %d: count %v vs %v", trial, got, want)
		}
		for j := 0; j < 3; j++ {
			if got, want := cur.d[LinDeg(j)], cur.t.SumOf(j); got != want {
				t.Fatalf("trial %d: lin(%d) %v vs %v", trial, j, got, want)
			}
			for k := j; k < 3; k++ {
				if got, want := cur.d[QuadDeg(j, k)], cur.t.QuadOf(j, k); got != want {
					t.Fatalf("trial %d: quad(%d,%d) %v vs %v", trial, j, k, got, want)
				}
			}
		}
	}
}

func TestDegreeCombine(t *testing.T) {
	if d, ok := CountDeg.combine(CountDeg); !ok || d != CountDeg {
		t.Errorf("count*count = %v,%v", d, ok)
	}
	if d, ok := LinDeg(2).combine(LinDeg(1)); !ok || d != QuadDeg(1, 2) {
		t.Errorf("lin*lin = %v,%v, want quad(1,2)", d, ok)
	}
	if d, ok := LinDeg(1).combine(CountDeg); !ok || d != LinDeg(1) {
		t.Errorf("lin*count = %v,%v", d, ok)
	}
	if _, ok := QuadDeg(1, 1).combine(LinDeg(2)); ok {
		t.Error("quad*lin should truncate")
	}
	if _, ok := QuadDeg(0, 1).combine(QuadDeg(2, 3)); ok {
		t.Error("quad*quad should truncate")
	}
}

func TestLiftDegMap(t *testing.T) {
	l := LiftDegMap(3, 2)
	if l[CountDeg] != 1 || l[LinDeg(3)] != 2 || l[QuadDeg(3, 3)] != 4 {
		t.Errorf("LiftDegMap = %v", l)
	}
}

func TestDegMapBytesMonotone(t *testing.T) {
	dm := DegreeMap{}
	if dm.Bytes(nil) >= dm.Bytes(LiftDegMap(0, 1)) {
		t.Error("Bytes should grow with entries")
	}
}

func TestTripleNaNSafety(t *testing.T) {
	// IsZero must not treat NaN as zero.
	cf := Cofactor{}
	a := Triple{C: math.NaN()}
	if cf.IsZero(a) {
		t.Error("IsZero(NaN) = true")
	}
}
