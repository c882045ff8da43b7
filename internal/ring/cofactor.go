package ring

// Triple is an element of the degree-m matrix ring from paper Definition 6.2:
// a compound aggregate (c, s, Q) where c is a scalar count aggregate
// (SUM(1)), s is a vector of linear aggregates (SUM(X_i)), and Q is a
// symmetric matrix of quadratic aggregates (SUM(X_i * X_j)).
//
// Triples are stored sparsely, following the paper's note that "in practice
// we only store as payloads blocks of matrices with non-zero values and
// assemble larger matrices as the computation progresses towards the root":
// Vars lists the variable indices with possibly non-zero entries, and S and Q
// hold only those rows/columns. In a view tree each variable is lifted
// exactly once, so payloads stay small in the leaves and grow toward the
// root, where they cover all m variables.
//
// Triples are values: Add, Mul and Neg build a fresh triple and never write
// an operand. Only the in-place operations of Mutable write, and only into a
// destination the caller owns.
type Triple struct {
	// C is the scalar count aggregate.
	C float64
	// Vars holds the sorted variable indices covered by S and Q.
	Vars []int32
	// S holds the linear aggregates; S[i] corresponds to Vars[i].
	S []float64
	// Q holds the quadratic aggregates in row-major order over Vars;
	// Q[i*len(Vars)+j] is SUM(X_{Vars[i]} * X_{Vars[j]}). Q is symmetric.
	Q []float64
}

// Cofactor is the degree-m matrix ring over Triple values. The degree m (the
// total number of query variables) bounds the variable indices but does not
// affect the sparse representation, so a single Cofactor value works for any
// query; m is only needed when expanding a triple to dense form.
type Cofactor struct{}

// Zero returns the triple (0, 0, 0).
func (Cofactor) Zero() Triple { return Triple{} }

// One returns the triple (1, 0, 0), the multiplicative identity.
func (Cofactor) One() Triple { return Triple{C: 1} }

// IsZero reports whether every component of the triple is zero. A triple can
// have a zero count but non-zero sums (for example, a delta combining an
// insert and a delete of tuples that agree on some variables), so every
// entry must be inspected.
func (Cofactor) IsZero(a Triple) bool {
	if a.C != 0 {
		return false
	}
	for _, v := range a.S {
		if v != 0 {
			return false
		}
	}
	for _, v := range a.Q {
		if v != 0 {
			return false
		}
	}
	return true
}

// Neg returns the additive inverse, negating every component.
func (Cofactor) Neg(a Triple) Triple {
	out := covering(a.Vars, nil)
	out.C = -a.C
	out.scaleScatterAdd(&a, -1)
	return out
}

// Add returns the component-wise sum of two triples, aligning their sparse
// variable sets.
func (Cofactor) Add(a, b Triple) Triple {
	// A zero operand contributes nothing: the other is returned whole.
	if a.C == 0 && len(a.Vars) == 0 {
		return b
	}
	if b.C == 0 && len(b.Vars) == 0 {
		return a
	}
	out := covering(a.Vars, b.Vars)
	if len(b.Vars) == len(out.Vars) {
		a, b = b, a // exact: a float sum of two terms commutes
	}
	if len(a.Vars) == len(out.Vars) {
		// a covers b: out starts as a copy of a, and b is summed in once.
		out.C = a.C
		copy(out.S, a.S)
		copy(out.Q, a.Q)
	} else {
		out.addInto(&a)
	}
	out.addInto(&b)
	return out
}

// Mul returns the ring product from Definition 6.2:
//
//	c  = ca*cb
//	s  = cb*sa + ca*sb
//	Q  = cb*Qa + ca*Qb + sa sbᵀ + sb saᵀ
//
// accumulated by mulAddInto into a zero triple over the merged variables. In
// view trees the operand variable sets are disjoint (each variable is lifted
// once), but Mul handles overlap correctly as required by the ring axioms.
func (cf Cofactor) Mul(a, b Triple) Triple {
	// Scalar operands are the overwhelmingly common case at the leaves of a
	// view tree: a unit returns the other operand, a zero the zero triple.
	switch {
	case cf.IsOne(&a):
		return b
	case cf.IsOne(&b):
		return a
	case a.C == 0 && len(a.Vars) == 0, b.C == 0 && len(b.Vars) == 0:
		return Triple{}
	}
	out := covering(a.Vars, b.Vars)
	out.mulAddInto(&a, &b)
	return out
}

// covering returns a zero triple over the union of the sorted variable lists
// av and bv, with S and Q of its own. Its Vars is av or bv itself when that
// list already covers the other, as a triple never writes the Vars of an
// operand; only a union that neither covers is allocated.
func covering(av, bv []int32) Triple {
	vars := av
	switch {
	case containsVars(av, bv):
	case containsVars(bv, av):
		vars = bv
	default:
		vars = unionInto(make([]int32, 0, len(av)+len(bv)), av, bv)
	}
	if len(vars) == 0 {
		return Triple{}
	}
	out := Triple{Vars: vars}
	out.S, out.Q = newSQ(len(vars))
	return out
}

// Bytes estimates the heap footprint of a triple.
func (Cofactor) Bytes(a Triple) int {
	return 8 + 3*24 + 4*len(a.Vars) + 8*len(a.S) + 8*len(a.Q)
}

// LiftValue returns the lifting g_j(x) = (1, s_j = x, Q_{jj} = x²) for the
// variable with index j (paper Section 6.2).
func LiftValue(j int, x float64) Triple {
	out := Triple{C: 1, Vars: []int32{int32(j)}}
	out.S, out.Q = newSQ(1)
	out.S[0] = x
	out.Q[0] = x * x
	return out
}

// Count returns the scalar count aggregate of the triple.
func (a Triple) Count() float64 { return a.C }

// SumOf returns the linear aggregate SUM(X_j), or 0 if j is not covered.
func (a Triple) SumOf(j int) float64 {
	i := findVar(a.Vars, int32(j))
	if i < 0 {
		return 0
	}
	return a.S[i]
}

// QuadOf returns the quadratic aggregate SUM(X_i * X_j), or 0 if either
// variable is not covered.
func (a Triple) QuadOf(i, j int) float64 {
	ri := findVar(a.Vars, int32(i))
	rj := findVar(a.Vars, int32(j))
	if ri < 0 || rj < 0 {
		return 0
	}
	return a.Q[ri*len(a.Vars)+rj]
}

// ExpandSum returns the dense m-length vector of linear aggregates.
func (a Triple) ExpandSum(m int) []float64 {
	out := make([]float64, m)
	for i, v := range a.Vars {
		out[v] = a.S[i]
	}
	return out
}

// ExpandQ returns the dense m×m row-major cofactor matrix.
func (a Triple) ExpandQ(m int) []float64 {
	out := make([]float64, m*m)
	k := len(a.Vars)
	for i := 0; i < k; i++ {
		ri := int(a.Vars[i])
		for j := 0; j < k; j++ {
			out[ri*m+int(a.Vars[j])] = a.Q[i*k+j]
		}
	}
	return out
}

func sameVars(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func findVar(vars []int32, v int32) int {
	lo, hi := 0, len(vars)
	for lo < hi {
		mid := (lo + hi) / 2
		if vars[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vars) && vars[lo] == v {
		return lo
	}
	return -1
}
