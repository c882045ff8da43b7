// Package ring defines the payload algebra used by F-IVM.
//
// In F-IVM, a relation maps keys (tuples of data values) to payloads, which
// are elements of a task-specific ring (D, +, *, 0, 1). The computation over
// keys — joins, unions, marginalization — is identical for all tasks; tasks
// differ only in the choice of ring and of the lifting functions that map key
// values into the ring. This package provides the ring abstraction and the
// concrete rings used by the paper's applications:
//
//   - Int and Float: the Z and R rings for COUNT/SUM-style aggregates.
//   - Cofactor: the degree-m matrix ring of (count, sum-vector, cofactor
//     matrix) triples used for gradient computation in linear regression
//     (paper Definition 6.2).
//   - DegreeMap: an explicit degree-indexed aggregate encoding equivalent to
//     the paper's SQL-OPT competitor.
//
// The relational data ring F[Z] (paper Definition 6.4) lives in package
// internal/data because its elements are relations.
//
// Every ring implements one interface, Ring: the in-place operations of
// Mutable, with which relations and delta plans accumulate into the payloads
// they own; Add, Mul and Neg, which return a fresh payload for lifting
// products and for values that must not change; and Bytes for memory
// accounting. Each operation has one implementation, so the two forms cannot
// disagree: Cofactor's and DegreeMap's Add and Mul run AddInto and MulAddInto
// on a fresh payload.
package ring

// Ring is a commutative-enough ring over payload type T. Implementations
// must satisfy the ring axioms (associativity and commutativity of Add,
// associativity of Mul, distributivity of Mul over Add, identities, and
// additive inverses). Mul need not be commutative (the matrix ring is not in
// general), but all rings used by the engine are.
//
// Add, Mul and Neg must not modify their arguments, because views share
// payload values; they may return one of them, and otherwise return a fresh
// payload that the in-place operations (Mutable) filled. Those mutate only a
// destination the caller exclusively owns.
type Ring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// One returns the multiplicative identity.
	One() T
	// Add returns a + b.
	Add(a, b T) T
	// Neg returns the additive inverse -a.
	Neg(a T) T
	// Mul returns a * b.
	Mul(a, b T) T
	// IsZero reports whether a equals the additive identity. Relations use
	// it to drop keys whose payloads vanish, keeping supports finite.
	IsZero(a T) bool
	// Bytes returns an estimate of the heap bytes held by the payload.
	Bytes(a T) int
	Mutable[T]
}

// Mutable is the in-place half of Ring: accumulation for the hot
// maintenance paths, where a fresh slice or map per payload merge is what
// Add and Mul would cost.
//
// Contract: *dst must be exclusively owned by the caller (no other live
// value shares its backing storage), and after the call *dst still shares no
// storage with src, a, or b. Relations store payloads as deep copies
// (CopyInto) mutated in place by later merges (AddInto/MulAddInto), so
// payloads read out of a relation are snapshots only until its next update.
// Operands are never written through — only *dst is.
//
// The sources of AddInto and CopyInto are passed by value, the operands of
// the products by pointer. By value, because a merge source is as often a
// local or a parameter as an entry's field, and the address of a local
// handed through an interface call escapes: one heap cell per merge. The
// copy it costs instead is the payload's header — 80 bytes for a cofactor
// triple, beside an add over its blocks — so an entry-resident source is
// passed as src.Payload and there is no pointer-source twin of these two.
// Product operands are always heap-resident already (entries, product
// slots, the lift cache), so they travel by pointer.
type Mutable[T any] interface {
	// AddInto accumulates src into *dst in place: *dst += src.
	AddInto(dst *T, src T)
	// MulInto sets *dst = *a * *b, reusing dst's storage where possible.
	// dst must not alias a or b.
	MulInto(dst, a, b *T)
	// MulAddInto accumulates a product: *dst += *a * *b. dst must not alias
	// a or b.
	MulAddInto(dst, a, b *T)
	// CopyInto sets *dst to a deep copy of src, reusing dst's storage.
	CopyInto(dst *T, src T)
	// IsOne reports whether *a is the multiplicative identity, letting hot
	// paths skip products by one entirely (sharing the other operand is
	// always safe: values are never mutated through reads).
	IsOne(a *T) bool
}

// MutableOf returns r: every ring is Mutable.
//
// Deprecated: call the ring's own methods. Only benchmark/inproc.go still
// calls it; ROADMAP item 1 removes those calls and this function.
func MutableOf[T any](r Ring[T]) Mutable[T] { return r }
