package ring

// Degree identifies one regression aggregate by the variables it multiplies:
// the count aggregate SUM(1) has no variables, a linear aggregate SUM(X_i)
// has one, and a quadratic aggregate SUM(X_i*X_j) has two (i <= j). Unused
// slots hold -1.
type Degree struct {
	I, J int16
}

// CountDeg is the degree key of the count aggregate SUM(1).
var CountDeg = Degree{-1, -1}

// LinDeg returns the degree key of the linear aggregate SUM(X_i).
func LinDeg(i int) Degree { return Degree{int16(i), -1} }

// QuadDeg returns the degree key of the quadratic aggregate SUM(X_i*X_j).
func QuadDeg(i, j int) Degree {
	if i > j {
		i, j = j, i
	}
	return Degree{int16(i), int16(j)}
}

func (d Degree) arity() int {
	switch {
	case d.I < 0:
		return 0
	case d.J < 0:
		return 1
	default:
		return 2
	}
}

// combine merges two degree keys into the degree of their product aggregate.
// It reports ok=false when the product exceeds degree two and therefore falls
// outside the tracked aggregate set (such terms can never feed a tracked
// aggregate again, since degrees only grow under multiplication).
func (d Degree) combine(e Degree) (Degree, bool) {
	n := d.arity() + e.arity()
	if n > 2 {
		return Degree{}, false
	}
	var vs [2]int16
	k := 0
	for _, x := range []Degree{d, e} {
		if x.I >= 0 {
			vs[k] = x.I
			k++
		}
		if x.J >= 0 {
			vs[k] = x.J
			k++
		}
	}
	switch n {
	case 0:
		return CountDeg, true
	case 1:
		return Degree{vs[0], -1}, true
	default:
		if vs[0] > vs[1] {
			vs[0], vs[1] = vs[1], vs[0]
		}
		return Degree{vs[0], vs[1]}, true
	}
}

// DegMap is a payload mapping aggregate degree keys to values. It is the
// explicit, degree-indexed encoding of the regression aggregates that the
// paper's SQL-OPT competitor uses: a single aggregate column indexed by the
// degree of each query variable. It computes the same aggregates as the
// Cofactor ring but pays hash-map costs instead of dense vector/matrix
// arithmetic, which is exactly the constant-factor gap the paper reports
// between SQL-OPT and F-IVM.
type DegMap map[Degree]float64

// DegreeMap is the ring over DegMap payloads.
type DegreeMap struct{}

// Zero returns an empty aggregate map.
func (DegreeMap) Zero() DegMap { return nil }

// One returns the map holding only the count aggregate with value 1.
func (DegreeMap) One() DegMap { return DegMap{CountDeg: 1} }

// IsZero reports whether the map holds no non-zero aggregate.
func (DegreeMap) IsZero(a DegMap) bool { return len(a) == 0 }

// Add returns the entry-wise sum; entries canceling to zero are dropped.
func (r DegreeMap) Add(a, b DegMap) DegMap {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(DegMap, len(a)+len(b))
	r.AddInto(&out, a)
	r.AddInto(&out, b)
	return out
}

// Neg returns the entry-wise negation.
func (DegreeMap) Neg(a DegMap) DegMap {
	out := make(DegMap, len(a))
	for k, v := range a {
		out[k] = -v
	}
	return out
}

// Mul multiplies the aggregate maps as formal sums of degree terms,
// truncating products above degree two (see Degree.combine).
func (r DegreeMap) Mul(a, b DegMap) DegMap {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(DegMap, len(a)+len(b))
	r.MulAddInto(&out, &a, &b)
	return out
}

// Bytes estimates the heap footprint of the payload map.
func (DegreeMap) Bytes(a DegMap) int { return 48 + len(a)*28 }

// AddInto accumulates src into *dst in place, dropping entries that cancel.
func (DegreeMap) AddInto(dst *DegMap, src DegMap) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(DegMap, len(src))
	}
	m := *dst
	for k, v := range src {
		if s := m[k] + v; s == 0 {
			delete(m, k)
		} else {
			m[k] = s
		}
	}
}

// MulAddInto accumulates *dst += *a * *b, truncating above degree two.
func (DegreeMap) MulAddInto(dst, a, b *DegMap) {
	if len(*a) == 0 || len(*b) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(DegMap, len(*a)+len(*b))
	}
	m := *dst
	for ka, va := range *a {
		for kb, vb := range *b {
			k, ok := ka.combine(kb)
			if !ok {
				continue
			}
			if s := m[k] + va*vb; s == 0 {
				delete(m, k)
			} else {
				m[k] = s
			}
		}
	}
}

// MulInto sets *dst = *a * *b, reusing dst's map storage.
func (r DegreeMap) MulInto(dst, a, b *DegMap) {
	clear(*dst)
	r.MulAddInto(dst, a, b)
}

// IsOne reports whether *a holds only the count aggregate with value 1.
func (DegreeMap) IsOne(a *DegMap) bool { return len(*a) == 1 && (*a)[CountDeg] == 1 }

// CopyInto sets *dst to a deep copy of src.
func (DegreeMap) CopyInto(dst *DegMap, src DegMap) {
	clear(*dst)
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(DegMap, len(src))
	}
	m := *dst
	for k, v := range src {
		m[k] = v
	}
}

// LiftDegMap returns the lifting of value x for variable j:
// {SUM(1): 1, SUM(X_j): x, SUM(X_j*X_j): x²}.
func LiftDegMap(j int, x float64) DegMap {
	return DegMap{CountDeg: 1, LinDeg(j): x, QuadDeg(j, j): x * x}
}
