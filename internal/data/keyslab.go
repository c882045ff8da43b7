package data

import (
	"math"
	"unsafe"

	"fivm/internal/ring"
)

// keySlab bump-allocates the encoded keys of a scratch relation out of
// relation-owned byte chunks and takes them all back at once (rewind, from
// Relation.Clear). A key is a string header over slab bytes, so the contract
// of the scratch row of Relation's ownership table is physical: after the
// rewind the bytes belong to the next batch's keys, and whoever kept the
// string reads those.
//
// A chunk is never grown in place — live keys point into it — so a key that
// does not fit opens a new chunk of at least twice the size and retires the
// old one. The rewind replaces several chunks by one as large as all of
// them, after which a batch of the same shape allocates nothing.
type keySlab struct {
	cur     []byte   // the open chunk; len is the bump pointer
	retired [][]byte // chunks filled since the last rewind, pinned by their keys
}

const keySlabMin = 1 << 10

// internKey copies key into the slab and returns the copy as a string.
func internKey[K string | []byte](s *keySlab, key K) string {
	if len(key) == 0 {
		return ""
	}
	if len(s.cur)+len(key) > cap(s.cur) {
		if s.cur != nil {
			s.retired = append(s.retired, s.cur)
		}
		s.cur = make([]byte, 0, max(keySlabMin, 2*cap(s.cur), len(key)))
	}
	off := len(s.cur)
	s.cur = append(s.cur, key...)
	return unsafe.String(&s.cur[off], len(key))
}

// rewind frees every key at once.
func (s *keySlab) rewind() {
	if poison {
		for _, c := range append(s.retired, s.cur) {
			for i := range c {
				c[i] = 0xFF
			}
		}
	}
	if len(s.retired) > 0 {
		s.cur = make([]byte, 0, s.bytes())
		s.retired = s.retired[:0]
	}
	s.cur = s.cur[:0]
}

// bytes is the capacity the slab holds.
func (s *keySlab) bytes() int {
	n := cap(s.cur)
	for _, c := range s.retired {
		n += cap(c)
	}
	return n
}

// poison makes reclaimed storage unusable instead of merely reusable, so a
// consumer that kept an entry, a mutable payload or a scratch key past its
// owner's reclaim point fails the test suites loudly: reclaimed entries get
// their key and tuple scribbled and the payload storage they keep NaN-filled,
// rewound key slabs are filled with 0xFF, and a snapshot arena block no
// generation pins any more has its sealed entries overwritten (a read through
// a Released snapshot). Test hook, off in production.
var poison bool

// PoisonReclaimed switches the poison hook; tests call it from TestMain
// before any relation exists.
func PoisonReclaimed(on bool) { poison = on }

const poisonKey = "\xff<reclaimed>"

var poisonTuple = Tuple{String(poisonKey)}

// poisonRun scribbles the sealed entries of an arena block nobody pins any
// more. Only the entry VALUES are overwritten: the payload storage a sealed
// entry points at is shared with the live relation under the gen rule.
func poisonRun[P any](es []Entry[P]) {
	var dead P
	switch p := any(&dead).(type) {
	case *float64:
		*p = math.NaN()
	case *int64:
		*p = math.MinInt64
	case *ring.Triple:
		p.C = math.NaN()
	}
	for i := range es {
		es[i] = Entry[P]{key: poisonKey, Tuple: poisonTuple, Payload: dead}
	}
}

// poisonEntry scribbles a reclaimed entry. What a later insert overwrites
// anyway (CopyInto, MulInto) may hold anything; what it would wrongly
// accumulate onto now yields NaN.
func poisonEntry[P any](e *Entry[P]) {
	e.key, e.Tuple = poisonKey, poisonTuple
	nan := math.NaN()
	switch p := any(&e.Payload).(type) {
	case *float64:
		*p = nan
	case *ring.Triple:
		p.C = nan
		for _, fs := range [][]float64{p.S[:cap(p.S)], p.Q[:cap(p.Q)]} {
			for i := range fs {
				fs[i] = nan
			}
		}
	}
}
