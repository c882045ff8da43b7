// Package ringtest counts the work a ring does. Counted wraps any ring.Ring
// and counts its additions and multiplications, and the floats each result
// holds. The paper argues about work (which views exist, how many ring
// operations an update costs), and a count, unlike a stopwatch, reads the
// same on every machine.
//
// Which counts are bit-equal for a seed: Mul always, and Add and Floats over
// the cofactor ring; assert exact numbers on those only. Floats over degree
// maps is not: a map drops an entry whose sum is exactly zero, and Go
// randomizes map iteration, and with it the order of each payload's float
// sums (SQL-OPT's entries on one Retailer stream move by a few in a thousand
// from run to run). Add over scalar Float payloads, the paper's DBT and 1-IVM,
// may move between processes for a like reason: a relation's iteration order
// follows its table's per-process hash seed, and a sum that cancels to
// exactly zero in some orders only drops its key, whose next insert is then a
// copy, not an addition. That is a suspect, not verified.
package ringtest

import "fivm/internal/ring"

// Counter counts the work done through a counted ring, driven by one
// goroutine.
type Counter struct{ add, mul, floats int64 }

// Load reads the counter.
func (c *Counter) Load() Counts {
	return Counts{Add: c.add, Mul: c.mul, Floats: c.floats}
}

// Counts is a reading of a Counter. Add counts Add and AddInto calls, Mul
// counts Mul, MulInto and MulAddInto calls, and Floats sums the size of
// every counted operation's result: 1+len(S)+len(Q) for a ring.Triple, the
// entries of a ring.DegMap, and 1 for any other payload.
type Counts struct{ Add, Mul, Floats int64 }

// Sub returns the work done between reading d and reading c.
func (c Counts) Sub(d Counts) Counts {
	return Counts{Add: c.Add - d.Add, Mul: c.Mul - d.Mul, Floats: c.Floats - d.Floats}
}

// Counted is a ring.Ring that counts its operations into a Counter.
type Counted[P any] struct {
	inner ring.Ring[P]
	c     *Counter
}

// Wrap returns r counting into c.
func Wrap[P any](r ring.Ring[P], c *Counter) ring.Ring[P] { return Counted[P]{inner: r, c: c} }

// Zero returns the inner ring's zero.
func (c Counted[P]) Zero() P { return c.inner.Zero() }

// One returns the inner ring's one.
func (c Counted[P]) One() P { return c.inner.One() }

// Neg returns -a; not counted.
func (c Counted[P]) Neg(a P) P { return c.inner.Neg(a) }

// IsZero reports whether a is zero; not counted.
func (c Counted[P]) IsZero(a P) bool { return c.inner.IsZero(a) }

// Add returns a + b, counted.
func (c Counted[P]) Add(a, b P) P {
	s := c.inner.Add(a, b)
	c.count(&c.c.add, &s)
	return s
}

// Mul returns a * b, counted.
func (c Counted[P]) Mul(a, b P) P {
	p := c.inner.Mul(a, b)
	c.count(&c.c.mul, &p)
	return p
}

// Bytes is the inner ring's estimate.
func (c Counted[P]) Bytes(a P) int { return c.inner.Bytes(a) }

// AddInto accumulates *dst += src, counted.
func (c Counted[P]) AddInto(dst *P, src P) {
	c.inner.AddInto(dst, src)
	c.count(&c.c.add, dst)
}

// MulInto sets *dst = *a * *b, counted.
func (c Counted[P]) MulInto(dst, a, b *P) {
	c.inner.MulInto(dst, a, b)
	c.count(&c.c.mul, dst)
}

// MulAddInto accumulates *dst += *a * *b, counted as one Mul.
func (c Counted[P]) MulAddInto(dst, a, b *P) {
	c.inner.MulAddInto(dst, a, b)
	c.count(&c.c.mul, dst)
}

// CopyInto sets *dst to a deep copy of src; not counted.
func (c Counted[P]) CopyInto(dst *P, src P) { c.inner.CopyInto(dst, src) }

// IsOne reports whether *a is one; not counted.
func (c Counted[P]) IsOne(a *P) bool { return c.inner.IsOne(a) }

// count adds one to the operation's count and the result's floats to floats.
func (c Counted[P]) count(op *int64, result *P) {
	*op++
	n := 1
	switch v := any(result).(type) {
	case *ring.Triple:
		n += len(v.S) + len(v.Q)
	case *ring.DegMap:
		n = len(*v)
	}
	c.c.floats += int64(n)
}
