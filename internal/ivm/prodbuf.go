package ivm

import "fivm/internal/ring"

// prodBuf is the append-only product-slot buffer backing the payloads of
// join-extended work items of a joinStep.
//
// Invariants: slots are append-only for the lifetime of one propagation
// call (never truncated or overwritten while work items may reference
// them), and reset only between calls, when all referencing work items are
// dead; slot storage is then reused by MulInto. The identity short-circuit
// hands back an operand's own pointer — safe because work-item payloads are
// only ever read.
type prodBuf[P any] struct {
	r     ring.Ring[P]
	mut   ring.Mutable[P] // non-nil when the ring supports in-place ops
	slots []P
}

func newProdBuf[P any](r ring.Ring[P]) prodBuf[P] {
	return prodBuf[P]{r: r, mut: ring.MutableOf(r)}
}

// reset recycles the buffer for a new propagation call.
func (b *prodBuf[P]) reset() { b.slots = b.slots[:0] }

// product returns a pointer to *a * *pay: one of the operands when the
// other is the multiplicative identity (as immutable Mul's alias fast path
// does), otherwise a fresh slot computed with reused storage.
func (b *prodBuf[P]) product(a, pay *P) *P {
	if b.mut != nil {
		if b.mut.IsOne(a) {
			return pay
		}
		if b.mut.IsOne(pay) {
			return a
		}
	}
	if len(b.slots) < cap(b.slots) {
		b.slots = b.slots[:len(b.slots)+1]
	} else {
		var zero P
		b.slots = append(b.slots, zero)
	}
	slot := &b.slots[len(b.slots)-1]
	if b.mut != nil {
		b.mut.MulInto(slot, a, pay)
	} else {
		*slot = b.r.Mul(*a, *pay)
	}
	return slot
}
