package data

import "iter"

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
type EntrySet[P any] struct {
	small []*Entry[P] // linear mode; nil once promoted
	tab   entryTable[P]
	key   []byte // the owning directory node's key bytes (see Index.Add)
}

// Len returns the number of entries in the set.
func (s *EntrySet[P]) Len() int {
	if s == nil {
		return 0
	}
	if s.small != nil || s.tab.ctrl == nil {
		return len(s.small)
	}
	return s.tab.len()
}

// add inserts e, which must not already be present and must have its key
// hash cached (true for every entry stored in a relation).
func (s *EntrySet[P]) add(e *Entry[P]) {
	if s.small != nil || s.tab.ctrl == nil {
		if len(s.small) < setSmallMax {
			s.small = append(s.small, e)
			return
		}
		// Promote: move the slice contents into the table.
		s.tab.reserve(2 * setSmallMax)
		for _, o := range s.small {
			s.tab.insert(o)
		}
		s.small = nil
	}
	s.tab.insert(e)
}

// remove deletes e if present.
func (s *EntrySet[P]) remove(e *Entry[P]) {
	if s.small != nil || s.tab.ctrl == nil {
		for i, o := range s.small {
			if o == e {
				last := len(s.small) - 1
				s.small[i] = s.small[last]
				s.small[last] = nil
				s.small = s.small[:last]
				return
			}
		}
		return
	}
	s.tab.del(e) // del compares pointer identity, so h2 collisions are safe
}

// All returns an iterator over the set's entries, in unspecified order. It
// is nil-safe, so probe misses range over nothing. The set must not be
// mutated during iteration.
func (s *EntrySet[P]) All() iter.Seq[*Entry[P]] {
	return func(yield func(*Entry[P]) bool) {
		if s == nil {
			return
		}
		for _, e := range s.small {
			if !yield(e) {
				return
			}
		}
		if s.small != nil {
			return
		}
		for _, e := range s.tab.slots {
			if e != nil && !yield(e) {
				return
			}
		}
	}
}
