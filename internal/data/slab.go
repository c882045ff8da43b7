package data

import (
	"math"
	"unsafe"

	"fivm/internal/ring"
)

// slab bump-allocates what a scratch relation makes for itself — the encoded
// keys of its entries (slab[byte]) and the tuples it projects (slab[Value]) —
// out of relation-owned chunks and takes everything back at once (rewind,
// from Relation.Clear). A key is a string header over slab bytes and a tuple
// a slice of slab values, so the contract of the scratch row of Relation's
// ownership table is physical: after the rewind the storage belongs to the
// next batch, and whoever kept a key or a tuple reads that batch's. A
// BatchArena is three slabs under the same contract, rewound per batch; a
// pooled relation takes the cells of a cold pool's rows from its tuple slab
// and never rewinds it.
//
// A chunk is never grown in place — live keys and tuples point into it — so
// a request that does not fit the open chunk opens the next one: a chunk kept
// from before the last rewind or, past the last of those, a new one of at
// least twice the size. The rewind keeps every chunk and reopens the first, so
// a batch of the same shape takes the same chunks in the same order and
// allocates nothing; the slab ends at under twice the largest batch.
type slab[T any] struct {
	cur    []T   // the open chunk, chunks[at]; len is the bump pointer
	chunks [][]T // every chunk bought, in the order take opens them
	at     int
	// maxChunk, when set, stops the doubling at that many elements: a slab
	// that is never rewound (a pooled relation's) would otherwise end on
	// a chunk as large as everything before it, mostly unused.
	maxChunk int
}

// slabMinBytes is the size of a slab's first chunk.
const slabMinBytes = 1 << 10

// take returns n fresh elements, capacity-capped and — for n = 0 too, a
// zero-column tuple stays a non-nil one — never nil.
func (s *slab[T]) take(n int) []T {
	for s.cur == nil || len(s.cur)+n > cap(s.cur) { // a kept chunk may be too small for n
		if s.cur != nil {
			s.at++
		}
		if s.at == len(s.chunks) {
			var zero T
			grow := 2 * cap(s.cur)
			if s.maxChunk > 0 {
				grow = min(grow, s.maxChunk)
			}
			s.chunks = append(s.chunks, make([]T, 0, max(slabMinBytes/int(unsafe.Sizeof(zero)), grow, n)))
		}
		s.cur = s.chunks[s.at]
	}
	off := len(s.cur)
	s.cur = s.cur[:off+n]
	return s.cur[off : off+n : off+n]
}

// internKey copies key into the slab and returns the copy as a string.
func internKey[K string | []byte](s *slab[byte], key K) string {
	if len(key) == 0 {
		return ""
	}
	b := s.take(len(key))
	copy(b, key)
	return unsafe.String(&b[0], len(b))
}

// used reports whether anything was taken since the last rewind (a chunk is
// only ever opened by a take that lands in it).
func (s *slab[T]) used() bool { return len(s.cur) > 0 }

// rewind frees everything at once and reopens the first chunk; under the
// poison hook the freed storage is filled with dead first.
func (s *slab[T]) rewind(dead T) {
	if s.cur == nil {
		return
	}
	if poison {
		for _, c := range s.chunks[:s.at+1] {
			fill(c[:cap(c)], dead)
		}
	}
	s.at, s.cur = 0, s.chunks[0]
}

func fill[T any](c []T, v T) {
	for i := range c {
		c[i] = v
	}
}

// bytes is the capacity the slab holds.
func (s *slab[T]) bytes() int {
	n := 0
	for _, c := range s.chunks {
		n += cap(c)
	}
	var zero T
	return n * int(unsafe.Sizeof(zero))
}

// poison makes reclaimed storage unusable instead of merely reusable, so a
// consumer that kept an entry, a mutable payload, a key or a tuple past its
// owner's reclaim point — or a pinned epoch's retired row past its Release —
// fails the test suites loudly: freed entries get their tuple scribbled (a
// pooled relation's cells filled with the poison value), the key storage they
// keep filled with 0xFF and the payload storage they keep NaN-filled, rewound
// key slabs are filled with 0xFF and rewound tuple slabs with the poison value.
// A snapshot chunk no unreleased snapshot reads any more is cleared with or
// without the hook, so a read through a Released snapshot panics. Test hook,
// off in production.
var poison bool

// PoisonReclaimed switches the poison hook; tests call it from TestMain
// before any relation exists.
func PoisonReclaimed(on bool) { poison = on }

const poisonKey = "\xff<reclaimed>"

var poisonTuple = Tuple{String(poisonKey)}

// poisonEntry scribbles a reclaimed entry. What a later insert overwrites
// anyway (setKey, CopyInto, MulInto) may hold anything: the key storage the
// entry keeps reads 0xFF to whoever kept the key string, and what an insert
// would wrongly accumulate onto now yields NaN.
func poisonEntry[P any](e *Entry[P], ownTuple bool) {
	fill(e.keyStore(), 0xFF)
	if ownTuple {
		fill(e.Tuple, poisonTuple[0])
	} else {
		e.Tuple = poisonTuple
	}
	nan := math.NaN()
	switch p := any(&e.Payload).(type) {
	case *float64:
		*p = nan
	case *ring.Triple:
		p.C = nan
		fill(p.S[:cap(p.S)], nan)
		fill(p.Q[:cap(p.Q)], nan)
	}
}
