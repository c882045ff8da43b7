package data

import (
	"iter"
	"math/bits"
	"slices"
	"unsafe"
)

// setSmallMax is the bucket size up to which an EntrySet stays a plain
// slice: a linear scan of at most 16 pointers is one or two cache lines,
// faster than any hashing, and most join-key buckets never grow past it.
const setSmallMax = 16

// EntrySet is a set of relation entries sharing an index key — the bucket
// type of Index. Small sets are a dense slice; past setSmallMax entries the
// set promotes to a group-probed open-addressing table keyed by each entry's
// cached key hash (entries in one bucket share a projected key but have
// distinct full keys, so the cached hash is already a well-distributed,
// collision-checked identity). A nil *EntrySet is an empty set.
//
// A set is as large as its contents need: slice and table arrays come from the
// index's stock (tab.stock, set by Index.Add) one size class at a time and go
// back to it when the set outgrows them or runs empty (release).
type EntrySet[P any] struct {
	small []*Entry[P] // linear mode: the table has no arrays; kept, emptied, once promoted
	tab   entryTable[P]
	key   []byte // the owning directory node's key bytes (see Index.Add)
}

// Len returns the number of entries in the set.
func (s *EntrySet[P]) Len() int {
	if s == nil {
		return 0
	}
	if s.tab.ctrl == nil {
		return len(s.small)
	}
	return s.tab.len()
}

// add inserts e, which must not already be present and must have its key
// hash cached (true for every entry stored in a relation).
func (s *EntrySet[P]) add(e *Entry[P]) {
	if s.tab.ctrl == nil {
		if n := len(s.small); n < setSmallMax {
			if n == cap(s.small) { // the next class up, like append's doubling
				grown := append(s.tab.stock.slots.take(max(1, 2*n))[:0], s.small...)
				s.tab.stock.slots.put(s.small)
				s.small = grown
			}
			s.small = append(s.small, e)
			return
		}
		// Promote: move the slice contents into the table.
		s.tab.reserve(2 * setSmallMax)
		for _, o := range s.small {
			s.tab.insert(o)
		}
		clear(s.small)
		s.small = s.small[:0]
	}
	s.tab.insert(e)
}

// release leaves the storage of a set that ran empty to the stock.
func (s *EntrySet[P]) release() {
	s.tab.release()
	s.tab.stock.slots.put(s.small)
	s.small = nil
}

// remove deletes e if present.
func (s *EntrySet[P]) remove(e *Entry[P]) {
	if s.tab.ctrl == nil {
		if i := slices.Index(s.small, e); i >= 0 {
			last := len(s.small) - 1
			s.small[i] = s.small[last]
			s.small[last] = nil
			s.small = s.small[:last]
		}
		return
	}
	s.tab.del(e) // del compares pointer identity, so h2 collisions are safe
}

// replace puts en, which carries e's key hash, where e is, if present.
func (s *EntrySet[P]) replace(e, en *Entry[P]) {
	if s.tab.ctrl == nil {
		if i := slices.Index(s.small, e); i >= 0 {
			s.small[i] = en
		}
		return
	}
	s.tab.replace(e, en)
}

// All returns an iterator over the set's entries, in unspecified order. It
// is nil-safe, so probe misses range over nothing. The set must not be
// mutated during iteration.
func (s *EntrySet[P]) All() iter.Seq[*Entry[P]] {
	return func(yield func(*Entry[P]) bool) {
		if s == nil {
			return
		}
		for _, e := range s.small { // empty once promoted
			if !yield(e) {
				return
			}
		}
		for _, e := range s.tab.slots {
			if e != nil && !yield(e) {
				return
			}
		}
	}
}

// tableStock is an index's stock of bucket storage: the arrays its buckets
// left behind — the class they outgrew, everything when they ran empty — for
// the next bucket that needs that class. An array is bought only when its class
// is out of stock, so a class never holds more than its buckets used at their
// high-water, and after one full cycle of a workload no bucket buys storage
// again, whichever directory node serves which key. A nil stock is the heap.
type tableStock[P any] struct {
	ctrl  sizeClasses[uint64]
	slots sizeClasses[*Entry[P]] // table slots and linear slices alike
}

func (s *tableStock[P]) take(groups int) ([]uint64, []*Entry[P]) {
	if s == nil {
		return make([]uint64, groups), make([]*Entry[P], groups*groupSlots)
	}
	return s.ctrl.take(groups), s.slots.take(groups * groupSlots)
}

func (s *tableStock[P]) put(ctrl []uint64, slots []*Entry[P]) {
	if s != nil {
		s.ctrl.put(ctrl)
		s.slots.put(slots)
	}
}

// sizeClasses keeps zeroed arrays whose length is a power of two, listed by
// its log2; bytes counts every array bought, handed out or in stock.
type sizeClasses[T any] struct {
	free  [][][]T
	bytes int
}

func (c *sizeClasses[T]) take(n int) []T {
	if k := bits.TrailingZeros(uint(n)); k < len(c.free) && len(c.free[k]) > 0 {
		l := c.free[k]
		c.free[k] = l[:len(l)-1]
		return l[len(l)-1]
	}
	var zero T
	c.bytes += n * int(unsafe.Sizeof(zero))
	return make([]T, n)
}

func (c *sizeClasses[T]) put(a []T) {
	if a = a[:cap(a)]; len(a) == 0 {
		return
	}
	clear(a)
	k := bits.TrailingZeros(uint(len(a)))
	for len(c.free) <= k {
		c.free = append(c.free, nil)
	}
	c.free[k] = append(c.free[k], a)
}
