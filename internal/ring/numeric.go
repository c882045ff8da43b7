package ring

// Int is the ring Z of integers with the usual arithmetic. It is the payload
// ring for COUNT queries and for multiplicity bookkeeping.
type Int struct{}

// Zero returns 0.
func (Int) Zero() int64 { return 0 }

// One returns 1.
func (Int) One() int64 { return 1 }

// Add returns a + b.
func (Int) Add(a, b int64) int64 { return a + b }

// Neg returns -a.
func (Int) Neg(a int64) int64 { return -a }

// Mul returns a * b.
func (Int) Mul(a, b int64) int64 { return a * b }

// IsZero reports a == 0.
func (Int) IsZero(a int64) bool { return a == 0 }

// Bytes reports the payload footprint (8 bytes for an int64).
func (Int) Bytes(int64) int { return 8 }

// AddInto accumulates src into *dst.
func (Int) AddInto(dst *int64, src int64) { *dst += src }

// MulInto sets *dst = *a * *b.
func (Int) MulInto(dst, a, b *int64) { *dst = *a * *b }

// MulAddInto accumulates *dst += *a * *b.
func (Int) MulAddInto(dst, a, b *int64) { *dst += *a * *b }

// CopyInto sets *dst = src.
func (Int) CopyInto(dst *int64, src int64) { *dst = src }

// IsOne reports *a == 1.
func (Int) IsOne(a *int64) bool { return *a == 1 }

// Float is the ring R of float64 values with the usual arithmetic. Strictly
// a ring only up to floating-point rounding; the engine relies on exact
// cancellation only for payloads produced by matching insert/delete pairs,
// which cancel exactly in IEEE 754.
type Float struct{}

// Zero returns 0.
func (Float) Zero() float64 { return 0 }

// One returns 1.
func (Float) One() float64 { return 1 }

// Add returns a + b.
func (Float) Add(a, b float64) float64 { return a + b }

// Neg returns -a.
func (Float) Neg(a float64) float64 { return -a }

// Mul returns a * b.
func (Float) Mul(a, b float64) float64 { return a * b }

// IsZero reports a == 0 (exact).
func (Float) IsZero(a float64) bool { return a == 0 }

// Bytes reports the payload footprint (8 bytes for a float64).
func (Float) Bytes(float64) int { return 8 }

// AddInto accumulates src into *dst.
func (Float) AddInto(dst *float64, src float64) { *dst += src }

// MulInto sets *dst = *a * *b.
func (Float) MulInto(dst, a, b *float64) { *dst = *a * *b }

// MulAddInto accumulates *dst += *a * *b.
func (Float) MulAddInto(dst, a, b *float64) { *dst += *a * *b }

// CopyInto sets *dst = src.
func (Float) CopyInto(dst *float64, src float64) { *dst = src }

// IsOne reports *a == 1.
func (Float) IsOne(a *float64) bool { return *a == 1 }
