package ring

// In-place triple arithmetic: the Cofactor ring's operations of ring.Mutable,
// and the kernels under Add, Mul and Neg, which run them on a fresh triple.
//
// The operations below mutate a destination triple the caller exclusively
// owns, growing its sparse variable coverage monotonically; once a
// destination has seen the variable set of its view (after the first few
// merges), accumulation is allocation-free.

// newSQ returns zeroed k-length and k²-length blocks sharing one backing
// array (S capped at k so appends never bleed into Q), halving the
// allocation count of fresh triples.
func newSQ(k int) (s, q []float64) {
	buf := make([]float64, k+k*k)
	return buf[:k:k], buf[k:]
}

// addInto accumulates b into a in place: a += b. a must be exclusively
// owned by the caller. When a already covers b's variables — the steady
// state for a payload accumulating deltas of a fixed view — no allocation
// occurs.
func (a *Triple) addInto(b *Triple) {
	a.C += b.C
	if len(b.Vars) == 0 {
		return
	}
	if sameVars(a.Vars, b.Vars) {
		// Tiny triples: the kernel call costs more than it saves, so widths
		// up to 3 get straight-line inline adds (no loops, no bounds checks).
		if k := len(b.Vars); k <= 3 {
			as, bs := a.S[:k], b.S[:k]
			aq, bq := a.Q[:k*k], b.Q[:k*k]
			switch k {
			case 1:
				as[0] += bs[0]
				aq[0] += bq[0]
			case 2:
				as[0] += bs[0]
				as[1] += bs[1]
				aq[0] += bq[0]
				aq[1] += bq[1]
				aq[2] += bq[2]
				aq[3] += bq[3]
			case 3:
				as[0] += bs[0]
				as[1] += bs[1]
				as[2] += bs[2]
				aq[0] += bq[0]
				aq[1] += bq[1]
				aq[2] += bq[2]
				aq[3] += bq[3]
				aq[4] += bq[4]
				aq[5] += bq[5]
				aq[6] += bq[6]
				aq[7] += bq[7]
				aq[8] += bq[8]
			}
			return
		}
		addTo(a.S, b.S)
		addTo(a.Q, b.Q)
		return
	}
	a.ensureVars(b.Vars, nil)
	a.scaleScatterAdd(b, 1)
}

// mulAddInto accumulates a product into d in place: d += a * b, with the
// ring product of Definition 6.2 computed directly in d's sparse variable
// space. Once d covers the union of a's and b's variables the operation is
// allocation-free.
func (d *Triple) mulAddInto(a, b *Triple) {
	switch {
	case len(a.Vars) == 0:
		if a.C == 0 {
			return
		}
		d.C += a.C * b.C
		if len(b.Vars) != 0 {
			d.ensureVars(b.Vars, nil)
			d.scaleScatterAdd(b, a.C)
		}
	case len(b.Vars) == 0:
		if b.C == 0 {
			return
		}
		d.C += a.C * b.C
		d.ensureVars(a.Vars, nil)
		d.scaleScatterAdd(a, b.C)
	default:
		d.ensureVars(a.Vars, b.Vars)
		d.C += a.C * b.C
		d.scaleScatterAdd(a, b.C)
		d.scaleScatterAdd(b, a.C)
		// Outer products sa sbᵀ + sb saᵀ in d's variable space. Operands
		// covering exactly d's variables use identity positions (no lookups)
		// and the half+mirror symmetric kernel.
		k := len(d.Vars)
		var bufA, bufB [scatterBufLen]int
		var ia, ib []int
		if !sameVars(d.Vars, a.Vars) {
			ia = varPositions(d.Vars, a.Vars, bufA[:0])
		}
		if !sameVars(d.Vars, b.Vars) {
			ib = varPositions(d.Vars, b.Vars, bufB[:0])
		}
		rank1ScatterUpdate(d.Q, a.S, b.S, ia, ib, k)
	}
}

// AddInto accumulates src into *dst in place.
func (Cofactor) AddInto(dst *Triple, src Triple) { dst.addInto(&src) }

// MulInto sets *dst = *a * *b, reusing dst's storage.
func (Cofactor) MulInto(dst, a, b *Triple) {
	dst.C, dst.Vars, dst.S, dst.Q = 0, dst.Vars[:0], dst.S[:0], dst.Q[:0]
	dst.mulAddInto(a, b)
}

// MulAddInto accumulates *dst += *a * *b.
func (Cofactor) MulAddInto(dst, a, b *Triple) { dst.mulAddInto(a, b) }

// CopyInto sets *dst to a deep copy of src, reusing dst's storage.
func (Cofactor) CopyInto(dst *Triple, src Triple) {
	dst.C = src.C
	dst.Vars = append(dst.Vars[:0], src.Vars...)
	k := len(src.Vars)
	if cap(dst.S) < k || cap(dst.Q) < k*k {
		dst.S, dst.Q = newSQ(k)
	} else {
		dst.S, dst.Q = dst.S[:k], dst.Q[:k*k]
	}
	copy(dst.S, src.S)
	copy(dst.Q, src.Q)
}

// IsOne reports whether *a is the multiplicative identity (1, 0, 0).
func (Cofactor) IsOne(a *Triple) bool { return a.C == 1 && len(a.Vars) == 0 }

// scatterBufLen bounds the stack-allocated position buffers; triples wider
// than this fall back to a heap-allocated index slice.
const scatterBufLen = 48

// varPositions appends, for each variable of sub, its position in vars
// (which must cover sub) to buf and returns the extended slice. Both lists
// are sorted, so a single merge scan finds every position in one pass over
// vars instead of a binary search per variable.
func varPositions(vars, sub []int32, buf []int) []int {
	i := 0
	for _, v := range sub {
		for vars[i] != v {
			i++
		}
		buf = append(buf, i)
		i++
	}
	return buf
}

// containsVars reports whether the sorted list vars covers every variable of
// the sorted list sub.
func containsVars(vars, sub []int32) bool {
	if len(sub) > len(vars) {
		return false
	}
	i := 0
	for _, v := range sub {
		for i < len(vars) && vars[i] < v {
			i++
		}
		if i >= len(vars) || vars[i] != v {
			return false
		}
		i++
	}
	return true
}

// unionInto merges the sorted variable lists a and b into dst (append,
// duplicates collapsed) and returns the extended slice.
func unionInto(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// zeroedFloats returns a length-k all-zero slice, reusing s's capacity.
func zeroedFloats(s []float64, k int) []float64 {
	if cap(s) < k {
		return make([]float64, k)
	}
	s = s[:k]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ensureVars grows d's variable coverage to include av and bv (either may be
// nil), realigning S and Q. A zero d reuses its slice capacity; a non-zero d
// whose coverage must grow reallocates (this happens at most once per new
// variable, so accumulation cost amortizes to zero allocations).
func (d *Triple) ensureVars(av, bv []int32) {
	if containsVars(d.Vars, av) && containsVars(d.Vars, bv) {
		return
	}
	if len(d.Vars) == 0 {
		d.Vars = unionInto(d.Vars[:0], av, bv)
		k := len(d.Vars)
		if cap(d.S) < k || cap(d.Q) < k*k {
			d.S, d.Q = newSQ(k)
			return
		}
		d.S = zeroedFloats(d.S, k)
		d.Q = zeroedFloats(d.Q, k*k)
		return
	}
	u := unionInto(make([]int32, 0, len(d.Vars)+len(av)+len(bv)), d.Vars, av)
	if len(bv) > 0 {
		u = unionInto(make([]int32, 0, len(u)+len(bv)), u, bv)
	}
	k := len(u)
	s, q := newSQ(k)
	old := len(d.Vars)
	for i, v := range d.Vars {
		ri := findVar(u, v)
		s[ri] = d.S[i]
		row := d.Q[i*old : (i+1)*old]
		for j, w := range d.Vars {
			q[ri*k+findVar(u, w)] = row[j]
		}
	}
	d.Vars, d.S, d.Q = u, s, q
}

// scaleScatterAdd adds scale*src into d, which must already cover src's
// variables. Identical variable sets — the steady state once a payload has
// grown to its view's coverage — take a dense position-free path.
func (d *Triple) scaleScatterAdd(src *Triple, scale float64) {
	if sameVars(d.Vars, src.Vars) {
		if scale == 1 {
			addTo(d.S, src.S)
			addTo(d.Q, src.Q)
			return
		}
		axpy(d.S, src.S, scale)
		axpy(d.Q, src.Q, scale)
		return
	}
	k := len(d.Vars)
	var buf [scatterBufLen]int
	idx := varPositions(d.Vars, src.Vars, buf[:0])
	if scale == 1 {
		scatterAxpy(d.S, d.Q, src.S, src.Q, idx, k)
		return
	}
	scatterAxpyScale(d.S, d.Q, src.S, src.Q, idx, k, scale)
}
