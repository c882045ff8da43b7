package ring

// Scalar reference kernels for the dense cofactor inner loops: the test
// oracle for kernels.go.
//
// These are the semantic ground truth: the unrolled kernels must produce
// bit-identical float64 results, including the zero-skip rules of the rank-1
// updates (skipping a zero operand also skips the Inf/NaN it would otherwise
// spread through the product). The property tests in kernels_test.go diff
// the two byte for byte.

// addToRef accumulates src into dst elementwise: dst[i] += src[i].
// len(dst) must be >= len(src).
func addToRef(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// axpyRef accumulates a scaled vector: dst[i] += scale * src[i].
// len(dst) must be >= len(src).
func axpyRef(dst, src []float64, scale float64) {
	for i, v := range src {
		dst[i] += scale * v
	}
}

// scatterAxpyRef adds scale*src into a destination with remapped variable
// positions: dstS[idx[i]] += scale*srcS[i] and the k×k destination matrix
// dstQ[idx[i]*k+idx[j]] += scale*srcQ[i*ks+j], where ks = len(srcS) and
// len(idx) = ks. idx values must be distinct positions < k.
func scatterAxpyRef(dstS, dstQ, srcS, srcQ []float64, idx []int, k int) {
	scatterAxpyScaleRef(dstS, dstQ, srcS, srcQ, idx, k, 1)
}

func scatterAxpyScaleRef(dstS, dstQ, srcS, srcQ []float64, idx []int, k int, scale float64) {
	ks := len(srcS)
	for i := 0; i < ks; i++ {
		dstS[idx[i]] += scale * srcS[i]
		row := idx[i] * k
		srow := srcQ[i*ks : (i+1)*ks]
		for j := 0; j < ks; j++ {
			dstQ[row+idx[j]] += scale * srow[j]
		}
	}
}

// rank1SymUpdateRef accumulates the symmetrized outer product
// sa·sbᵀ + sb·saᵀ into the k×k matrix q, where len(sa) = len(sb) = k
// (the position-remap-free case: both operands cover exactly the
// destination's variables). Zero entries are skipped per term, matching
// rank1ScatterUpdateRef with identity index maps.
func rank1SymUpdateRef(q, sa, sb []float64, k int) {
	rank1ScatterUpdateRef(q, sa, sb, nil, nil, k)
}

// rank1ScatterUpdateRef accumulates sa·sbᵀ + sb·saᵀ into the k×k matrix q
// with operand positions remapped through ia and ib (nil means identity).
// For each (i, j) with sa[i] != 0 and sb[j] != 0, the product p = sa[i]*sb[j]
// is added at (ri, rj) and mirrored at (rj, ri), preserving the exact
// accumulation order of the historical double loop.
func rank1ScatterUpdateRef(q, sa, sb []float64, ia, ib []int, k int) {
	for i, si := range sa {
		if si == 0 {
			continue
		}
		ri := i
		if ia != nil {
			ri = ia[i]
		}
		for j, sj := range sb {
			if sj == 0 {
				continue
			}
			rj := j
			if ib != nil {
				rj = ib[j]
			}
			p := si * sj
			q[ri*k+rj] += p
			q[rj*k+ri] += p
		}
	}
}
