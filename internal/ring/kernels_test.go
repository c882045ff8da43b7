package ring

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests diffing the unrolled and half+mirror kernels of kernels.go
// against the scalar reference forms in kernels_ref_test.go, byte for byte.

// kernelWidths covers the dispatch boundaries: the tiny inline paths (0-3),
// the unroll tail cases, both sides of scatterBufLen (48), and a width large
// enough that every loop runs many full unroll iterations.
var kernelWidths = []int{0, 1, 2, 3, 4, 7, 16, 47, 48, 49, 200}

// kernelModes name the entry distributions of generated vectors: dense
// normals, zero-heavy (exercising the rank-1 zero-skip rules), and a mix of
// ±Inf/NaN/zero (exercising non-finite propagation through the skips).
var kernelModes = []string{"random", "zero-heavy", "special"}

func genVec(rng *rand.Rand, n int, mode string) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch mode {
		case "zero-heavy":
			if rng.Float64() < 0.7 {
				v[i] = 0
			} else {
				v[i] = rng.NormFloat64()
			}
		case "special":
			switch rng.Intn(6) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Inf(1)
			case 2:
				v[i] = math.Inf(-1)
			case 3:
				v[i] = math.NaN()
			default:
				v[i] = rng.NormFloat64()
			}
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// subPositions returns m sorted distinct positions in [0, k): a random
// partial-coverage scatter map.
func subPositions(rng *rand.Rand, k, m int) []int {
	idx := rng.Perm(k)[:m]
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return idx
}

// sameBits compares two float64s bit for bit, except that any NaN matches
// any NaN: when two different NaN payloads meet in an add, which payload
// survives depends on the machine operand order, and the compiler is free to
// commute float adds per call site — so NaN payloads are not a stable part
// of the kernel contract. A kernel that wrongly skipped a NaN term would
// still fail: the result would be finite where the reference is NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len = %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestAddToMatchesReference(t *testing.T) {
	for _, mode := range kernelModes {
		for _, n := range kernelWidths {
			rng := rand.New(rand.NewSource(int64(n)*31 + 1))
			dst := genVec(rng, n, mode)
			src := genVec(rng, n, mode)
			got := append([]float64(nil), dst...)
			want := append([]float64(nil), dst...)
			addTo(got, src)
			addToRef(want, src)
			bitsEqual(t, mode, got, want)
		}
	}
}

func TestAxpyMatchesReference(t *testing.T) {
	scales := []float64{2.5, -1, 0.03125, math.Inf(1), math.NaN()}
	for _, mode := range kernelModes {
		for _, n := range kernelWidths {
			for _, scale := range scales {
				rng := rand.New(rand.NewSource(int64(n)*37 + 2))
				dst := genVec(rng, n, mode)
				src := genVec(rng, n, mode)
				got := append([]float64(nil), dst...)
				want := append([]float64(nil), dst...)
				axpy(got, src, scale)
				axpyRef(want, src, scale)
				bitsEqual(t, mode, got, want)
			}
		}
	}
}

func TestScatterAxpyMatchesReference(t *testing.T) {
	for _, mode := range kernelModes {
		for _, k := range kernelWidths {
			for _, ks := range []int{0, 1, k / 2, k} {
				if ks > k {
					continue
				}
				rng := rand.New(rand.NewSource(int64(k)*41 + int64(ks)))
				idx := subPositions(rng, k, ks)
				srcS := genVec(rng, ks, mode)
				srcQ := genVec(rng, ks*ks, mode)
				dstS := genVec(rng, k, mode)
				dstQ := genVec(rng, k*k, mode)
				for _, scale := range []float64{1, -3.25} {
					gotS := append([]float64(nil), dstS...)
					gotQ := append([]float64(nil), dstQ...)
					wantS := append([]float64(nil), dstS...)
					wantQ := append([]float64(nil), dstQ...)
					if scale == 1 {
						scatterAxpy(gotS, gotQ, srcS, srcQ, idx, k)
						scatterAxpyRef(wantS, wantQ, srcS, srcQ, idx, k)
					} else {
						scatterAxpyScale(gotS, gotQ, srcS, srcQ, idx, k, scale)
						scatterAxpyScaleRef(wantS, wantQ, srcS, srcQ, idx, k, scale)
					}
					bitsEqual(t, mode+"/S", gotS, wantS)
					bitsEqual(t, mode+"/Q", gotQ, wantQ)
				}
			}
		}
	}
}

func TestRank1SymUpdateMatchesReference(t *testing.T) {
	for _, mode := range kernelModes {
		for _, k := range kernelWidths {
			rng := rand.New(rand.NewSource(int64(k)*43 + 5))
			sa := genVec(rng, k, mode)
			sb := genVec(rng, k, mode)
			q := genVec(rng, k*k, mode)
			got := append([]float64(nil), q...)
			want := append([]float64(nil), q...)
			rank1SymUpdate(got, sa, sb, k)
			rank1SymUpdateRef(want, sa, sb, k)
			bitsEqual(t, mode, got, want)
		}
	}
}

func TestRank1ScatterUpdateMatchesReference(t *testing.T) {
	for _, mode := range kernelModes {
		for _, k := range kernelWidths {
			rng := rand.New(rand.NewSource(int64(k)*47 + 7))
			full := make([]int, k)
			for i := range full {
				full[i] = i
			}
			partA := subPositions(rng, k, k/2)
			partB := subPositions(rng, k, (k+1)/2)
			cases := []struct {
				name   string
				ia, ib []int
			}{
				{"nil-nil", nil, nil},
				{"part-nil", partA, nil},
				{"nil-part", nil, partB},
				{"part-part", partA, partB},
				{"full-full", full, full},
			}
			for _, c := range cases {
				na, nb := k, k
				if c.ia != nil {
					na = len(c.ia)
				}
				if c.ib != nil {
					nb = len(c.ib)
				}
				sa := genVec(rng, na, mode)
				sb := genVec(rng, nb, mode)
				q := genVec(rng, k*k, mode)
				got := append([]float64(nil), q...)
				want := append([]float64(nil), q...)
				rank1ScatterUpdate(got, sa, sb, c.ia, c.ib, k)
				rank1ScatterUpdateRef(want, sa, sb, c.ia, c.ib, k)
				bitsEqual(t, mode+"/"+c.name, got, want)
			}
		}
	}
}

// --- triple-level reference ---------------------------------------------------

// refScaleScatterAdd mirrors Triple.scaleScatterAdd's dispatch with the
// reference kernels substituted, so a divergence in the optimized dispatch
// (tiny inline paths, sameVars shortcuts) shows up as a byte diff.
func refScaleScatterAdd(d, src *Triple, scale float64) {
	if sameVars(d.Vars, src.Vars) {
		if scale == 1 {
			addToRef(d.S, src.S)
			addToRef(d.Q, src.Q)
			return
		}
		axpyRef(d.S, src.S, scale)
		axpyRef(d.Q, src.Q, scale)
		return
	}
	idx := varPositions(d.Vars, src.Vars, nil)
	if scale == 1 {
		scatterAxpyRef(d.S, d.Q, src.S, src.Q, idx, len(d.Vars))
		return
	}
	scatterAxpyScaleRef(d.S, d.Q, src.S, src.Q, idx, len(d.Vars), scale)
}

func refAddInto(a, b *Triple) {
	a.C += b.C
	if len(b.Vars) == 0 {
		return
	}
	a.ensureVars(b.Vars, nil)
	refScaleScatterAdd(a, b, 1)
}

func refMulAddInto(d, a, b *Triple) {
	switch {
	case len(a.Vars) == 0:
		if a.C == 0 {
			return
		}
		d.C += a.C * b.C
		if len(b.Vars) != 0 {
			d.ensureVars(b.Vars, nil)
			refScaleScatterAdd(d, b, a.C)
		}
	case len(b.Vars) == 0:
		if b.C == 0 {
			return
		}
		d.C += a.C * b.C
		d.ensureVars(a.Vars, nil)
		refScaleScatterAdd(d, a, b.C)
	default:
		d.ensureVars(a.Vars, b.Vars)
		d.C += a.C * b.C
		refScaleScatterAdd(d, a, b.C)
		refScaleScatterAdd(d, b, a.C)
		k := len(d.Vars)
		var ia, ib []int
		if !sameVars(d.Vars, a.Vars) {
			ia = varPositions(d.Vars, a.Vars, nil)
		}
		if !sameVars(d.Vars, b.Vars) {
			ib = varPositions(d.Vars, b.Vars, nil)
		}
		rank1ScatterUpdateRef(d.Q, a.S, b.S, ia, ib, k)
	}
}

// genKTriple builds a triple over w sorted variables drawn from a universe of
// size uni, with entries from the given mode. w may be 0 (scalar triple).
func genKTriple(rng *rand.Rand, w, uni int, mode string) Triple {
	vars := make([]int32, 0, w)
	for _, p := range subPositions(rng, uni, w) {
		vars = append(vars, int32(p))
	}
	tr := Triple{C: rng.NormFloat64(), Vars: vars}
	tr.S = genVec(rng, w, mode)
	tr.Q = genVec(rng, w*w, mode)
	return tr
}

func cloneTriple(t Triple) Triple {
	return Triple{
		C:    t.C,
		Vars: append([]int32(nil), t.Vars...),
		S:    append([]float64(nil), t.S...),
		Q:    append([]float64(nil), t.Q...),
	}
}

func tripleBitsEqual(t *testing.T, name string, got, want Triple) {
	t.Helper()
	if !sameBits(got.C, want.C) {
		t.Fatalf("%s: C = %v, want %v", name, got.C, want.C)
	}
	if len(got.Vars) != len(want.Vars) {
		t.Fatalf("%s: vars = %v, want %v", name, got.Vars, want.Vars)
	}
	for i := range got.Vars {
		if got.Vars[i] != want.Vars[i] {
			t.Fatalf("%s: vars = %v, want %v", name, got.Vars, want.Vars)
		}
	}
	bitsEqual(t, name+"/S", got.S, want.S)
	bitsEqual(t, name+"/Q", got.Q, want.Q)
}

// TestTripleOpsMatchReference drives AddInto and MulAddInto over adversarial
// triples — zero-heavy and ±Inf/NaN entries, widths spanning the tiny inline
// paths and both sides of scatterBufLen, equal/subset/disjoint variable
// coverage — and requires byte-identical results against the reference-kernel
// versions of the same operations.
func TestTripleOpsMatchReference(t *testing.T) {
	widths := []int{0, 1, 2, 3, 4, 7, 16, 47, 48, 49, 60}
	for _, mode := range kernelModes {
		for _, wd := range widths {
			for _, wa := range []int{0, 1, wd / 2, wd} {
				rng := rand.New(rand.NewSource(int64(wd)*53 + int64(wa)*59 + 11))
				uni := wd + 8
				d0 := genKTriple(rng, wd, uni, mode)
				// a's variables are drawn from the same universe, so coverage
				// relative to d varies from disjoint to identical.
				a := genKTriple(rng, wa, uni, mode)
				b := genKTriple(rng, wd, uni, mode)

				got, want := cloneTriple(d0), cloneTriple(d0)
				got.addInto(&a)
				refAddInto(&want, &a)
				tripleBitsEqual(t, "AddInto", got, want)

				got, want = cloneTriple(d0), cloneTriple(d0)
				got.mulAddInto(&a, &b)
				refMulAddInto(&want, &a, &b)
				tripleBitsEqual(t, "MulAddInto", got, want)
			}
		}
	}
}

// TestMulAddIntoWideOperand pins the fallback for operands wider than the
// stack position buffers (scatterBufLen = 48): results must still match the
// reference, and the only allocations allowed in steady state are the heap
// position slices themselves — never payload storage.
func TestMulAddIntoWideOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const uni = 70
	d := genKTriple(rng, uni, uni, "random") // covers the whole universe
	a := genKTriple(rng, scatterBufLen+2, uni, "random")
	b := genKTriple(rng, scatterBufLen+12, uni, "random")

	got, want := cloneTriple(d), cloneTriple(d)
	got.mulAddInto(&a, &b)
	refMulAddInto(&want, &a, &b)
	tripleBitsEqual(t, "wide MulAddInto", got, want)

	// Steady state: d already covers both operands. Four varPositions calls
	// exceed the stack buffers (two in scaleScatterAdd, two for the rank-1
	// index maps), so up to four index-slice allocations are expected; any
	// more means payload storage is being reallocated per call.
	acc := cloneTriple(d)
	allocs := testing.AllocsPerRun(50, func() {
		acc.mulAddInto(&a, &b)
	})
	if allocs > 4 {
		t.Errorf("wide MulAddInto allocs/op = %v, want <= 4 (index slices only)", allocs)
	}

	// Operands at the buffer boundary must stay fully stack-indexed.
	aN := genKTriple(rng, scatterBufLen, uni, "random")
	bN := genKTriple(rng, scatterBufLen, uni, "random")
	acc2 := cloneTriple(d)
	acc2.mulAddInto(&aN, &bN)
	narrow := testing.AllocsPerRun(50, func() {
		acc2.mulAddInto(&aN, &bN)
	})
	if narrow != 0 {
		t.Errorf("width-%d MulAddInto allocs/op = %v, want 0", scatterBufLen, narrow)
	}
}
