package data

import "sync/atomic"

// Recycler is the way back for the header struct of a published epoch
// (RelationSnapshot, ivm.ViewSnapshot, db.Epoch). Whoever drops the header's
// last reference Puts it, from any goroutine; its publisher Takes one for the
// next epoch and allocates only when there is none. Eight slots: in steady
// state one header is out per reader plus the current one, and what does not
// fit goes to the collector — as does a header whose lease is forgotten, which
// is never Put. The zero Recycler is ready; a nil one is empty, counts nothing.
type Recycler[T any] struct {
	slots [8]atomic.Pointer[T]
	stats Recycled // the publisher's goroutine only
}

// Recycled counts the headers a publisher built its epochs in: Reused ones a
// last Release gave back, Allocated ones are new — a reader that pins or
// forgets its leases shows as Allocated climbing.
type Recycled struct {
	Reused    uint64 `json:"reused"`
	Allocated uint64 `json:"allocated"`
}

// Put gives x, which nothing references any more, back.
func (r *Recycler[T]) Put(x *T) {
	for i := range r.slots {
		if r.slots[i].CompareAndSwap(nil, x) {
			return
		}
	}
}

// Take returns a header to build in, its fields as Put left them, or nil: the
// caller allocates.
func (r *Recycler[T]) Take() *T {
	if r == nil {
		return nil
	}
	for i := range r.slots {
		if x := r.slots[i].Swap(nil); x != nil {
			r.stats.Reused++
			return x
		}
	}
	r.stats.Allocated++
	return nil
}

// Stats returns the counts so far: the publisher's goroutine.
func (r *Recycler[T]) Stats() Recycled { return r.stats }
