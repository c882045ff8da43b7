package ring

// Dense kernels for the cofactor inner loops: 4-wide manual unrolling,
// slice-length hoisting so the compiler can eliminate bounds checks,
// row-slice hoisting in the matrix updates, and a half+mirror traversal for
// the symmetric rank-1 update. Every kernel is bit-identical to its scalar
// reference in kernels_ref_test.go — same per-element expression shapes,
// same per-element accumulation order, same zero-skip rules — which the
// property tests in kernels_test.go verify byte for byte.

// addTo accumulates src into dst elementwise: dst[i] += src[i].
func addTo(dst, src []float64) {
	n := len(src)
	if n == 0 {
		return
	}
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := dst[i] + src[i]
		d1 := dst[i+1] + src[i+1]
		d2 := dst[i+2] + src[i+2]
		d3 := dst[i+3] + src[i+3]
		dst[i] = d0
		dst[i+1] = d1
		dst[i+2] = d2
		dst[i+3] = d3
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// axpy accumulates a scaled vector: dst[i] += scale * src[i].
func axpy(dst, src []float64, scale float64) {
	n := len(src)
	if n == 0 {
		return
	}
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := dst[i] + scale*src[i]
		d1 := dst[i+1] + scale*src[i+1]
		d2 := dst[i+2] + scale*src[i+2]
		d3 := dst[i+3] + scale*src[i+3]
		dst[i] = d0
		dst[i+1] = d1
		dst[i+2] = d2
		dst[i+3] = d3
	}
	for ; i < n; i++ {
		dst[i] += scale * src[i]
	}
}

// scatterAxpy adds src into a destination with remapped variable positions
// (scale 1 shortcut of scatterAxpyScale).
func scatterAxpy(dstS, dstQ, srcS, srcQ []float64, idx []int, k int) {
	scatterAxpyScale(dstS, dstQ, srcS, srcQ, idx, k, 1)
}

// scatterAxpyScale adds scale*src into remapped destination positions:
// dstS[idx[i]] += scale*srcS[i], dstQ[idx[i]*k+idx[j]] += scale*srcQ[i*ks+j].
func scatterAxpyScale(dstS, dstQ, srcS, srcQ []float64, idx []int, k int, scale float64) {
	ks := len(srcS)
	if ks == 0 {
		return
	}
	idx = idx[:ks]
	for i := 0; i < ks; i++ {
		ri := idx[i]
		dstS[ri] += scale * srcS[i]
		row := dstQ[ri*k : ri*k+k]
		srow := srcQ[i*ks : i*ks+ks]
		for j := 0; j < ks; j++ {
			row[idx[j]] += scale * srow[j]
		}
	}
}

// rank1SymUpdate accumulates sa·sbᵀ + sb·saᵀ into the k×k matrix q for the
// position-remap-free case len(sa) = len(sb) = k, visiting each (i, j) pair
// once per half and mirroring. Per-element accumulation order and zero-skip
// rules match the reference double loop exactly: element (i, j) with i < j
// receives sa[i]*sb[j] before sa[j]*sb[i] on both halves, and the diagonal
// receives its product twice.
func rank1SymUpdate(q, sa, sb []float64, k int) {
	if k == 0 {
		return
	}
	sa = sa[:k]
	sb = sb[:k]
	for i := 0; i < k; i++ {
		sai, sbi := sa[i], sb[i]
		rowI := q[i*k : i*k+k]
		if sai != 0 && sbi != 0 {
			p := sai * sbi
			rowI[i] += p
			rowI[i] += p
		}
		if sai == 0 && sbi == 0 {
			continue
		}
		for j := i + 1; j < k; j++ {
			saj, sbj := sa[j], sb[j]
			if sai != 0 && sbj != 0 {
				p := sai * sbj
				rowI[j] += p
				q[j*k+i] += p
			}
			if saj != 0 && sbi != 0 {
				p := saj * sbi
				q[j*k+i] += p
				rowI[j] += p
			}
		}
	}
}

// rank1ScatterUpdate accumulates sa·sbᵀ + sb·saᵀ into the k×k matrix q with
// operand positions remapped through ia and ib (nil means identity). The
// remapped rows are hoisted as subslices; traversal order matches the
// reference.
func rank1ScatterUpdate(q, sa, sb []float64, ia, ib []int, k int) {
	if ia == nil && ib == nil {
		rank1SymUpdate(q, sa, sb, k)
		return
	}
	for i, si := range sa {
		if si == 0 {
			continue
		}
		ri := i
		if ia != nil {
			ri = ia[i]
		}
		row := q[ri*k : ri*k+k]
		for j, sj := range sb {
			if sj == 0 {
				continue
			}
			rj := j
			if ib != nil {
				rj = ib[j]
			}
			p := si * sj
			row[rj] += p
			q[rj*k+ri] += p
		}
	}
}
