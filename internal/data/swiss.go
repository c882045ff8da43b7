package data

import (
	"hash/maphash"
	"math/bits"
)

// This file implements the open-addressing hash table backing Relation and
// Index: a swiss-table-style, group-probed map specialized for the pointer
// entry layout the storage hot path already uses. Compared to a built-in
// map[string]*Entry[P] it stores only the entry pointer per slot (the key
// string and its hash live inside the entry, where Get/Merge need them
// anyway), probes eight slots per control-word comparison, re-inserts by the
// entry's cached hash on growth (no key re-hashing), and gives Relation
// exact control over Reserve, Clear, in-place compaction, and iteration.
//
// Layout: slots are grouped eight at a time. Each group owns one 64-bit
// control word holding one metadata byte per slot:
//
//	empty    0b1000_0000 — never stored an entry (or reclaimed, see del)
//	deleted  0b1111_1110 — tombstone: entry removed, probe chains continue
//	full     0b0hhh_hhhh — slot holds an entry; low 7 bits of its key hash
//
// A lookup selects a start group from the upper hash bits, then compares the
// whole group against the low 7 hash bits in a handful of word operations;
// candidate slots are confirmed by one key comparison. Groups are probed in
// a triangular sequence (g, g+1, g+3, g+6, ... mod groups), which visits
// every group; the probe stops at the first group containing an empty slot,
// since an insert would have used it.

// tableSeed is the process-wide hash seed. One shared seed keeps an entry's
// cached key hash valid across every table it may move through (relation
// clones, negations, entries merged by cached hash).
var tableSeed = maphash.MakeSeed()

// hashBytes and hashString hash an encoded tuple key. They agree on equal
// byte content, so a key encoded into a scratch buffer probes the same slots
// as its interned string form.
func hashBytes(b []byte) uint64  { return maphash.Bytes(tableSeed, b) }
func hashString(s string) uint64 { return maphash.String(tableSeed, s) }

const (
	groupSlots  = 8
	ctrlEmpty   = 0x80
	ctrlDeleted = 0xFE

	emptyWord = 0x8080808080808080
	lsbWord   = 0x0101010101010101
	msbWord   = 0x8080808080808080

	// tableMaxLoad is the numerator of the 7/8 load factor: a table with g
	// groups rehashes once live+deleted slots reach 7g.
	tableMaxLoadNum = 7
)

// h1 selects the start group (upper bits), h2 the 7-bit control byte.
func h1(h uint64) uint64 { return h >> 7 }
func h2(h uint64) uint8  { return uint8(h & 0x7f) }

// bitset marks matching slots of one group: the high bit of byte i is set
// when slot i matched.
type bitset uint64

func (b bitset) first() int   { return bits.TrailingZeros64(uint64(b)) >> 3 }
func (b bitset) next() bitset { return b & (b - 1) }

// matchByte reports the slots of control word w whose byte equals v, which
// must have its high bit clear (true for every h2). The zero-byte trick can
// produce false positives only on full slots (the caller confirms with a key
// comparison), never on empty or deleted ones: those have the high bit set,
// which the &^v term clears.
func matchByte(w uint64, v uint8) bitset {
	x := w ^ (lsbWord * uint64(v))
	return bitset(((x - lsbWord) &^ x) & msbWord)
}

// matchEmpty reports the empty slots of w, exactly: empty (0x80) is the only
// control byte with bit 7 set and bit 6 clear, and the shift moves bit 6 of
// each byte onto its own bit 7 without crossing byte boundaries.
func matchEmpty(w uint64) bitset { return bitset(w &^ (w << 1) & msbWord) }

// matchFree reports slots that can take an insert: empty or deleted, the
// bytes with bit 7 set.
func matchFree(w uint64) bitset { return bitset(w & msbWord) }

// entryTable is the table backing a Relation's primary storage and an
// Index's bucket directory and buckets. The zero value is an empty table
// ready for use.
//
// Capacity follows the live entries alone: tombstones never grow a table
// (rehash), a table that runs empty forgets them (del), and the arrays a
// table leaves go back to its stock (grow, release).
type entryTable[P any] struct {
	ctrl  []uint64       // one control word per group; len is a power of two
	slots []*Entry[P]    // len(ctrl) * groupSlots entries
	live  int            // stored entries
	dead  int            // tombstones
	stock *tableStock[P] // where the arrays come from and go back to: an Index's for its buckets, nil for the heap
}

func (t *entryTable[P]) len() int { return t.live }

// getBytes returns the entry stored under a key encoded in a caller-owned
// scratch buffer, or nil. h must be hashBytes(key). It never allocates.
func (t *entryTable[P]) getBytes(h uint64, key []byte) *Entry[P] {
	if t.live == 0 {
		return nil
	}
	mask := uint64(len(t.ctrl) - 1)
	g := h1(h) & mask
	hb := h2(h)
	for step := uint64(1); ; step++ {
		w := t.ctrl[g]
		for m := matchByte(w, hb); m != 0; m = m.next() {
			if e := t.slots[int(g)*groupSlots+m.first()]; e.key == string(key) {
				return e
			}
		}
		if matchEmpty(w) != 0 {
			return nil
		}
		g = (g + step) & mask
	}
}

// getString is getBytes for an interned key string.
func (t *entryTable[P]) getString(h uint64, key string) *Entry[P] {
	if t.live == 0 {
		return nil
	}
	mask := uint64(len(t.ctrl) - 1)
	g := h1(h) & mask
	hb := h2(h)
	for step := uint64(1); ; step++ {
		w := t.ctrl[g]
		for m := matchByte(w, hb); m != 0; m = m.next() {
			if e := t.slots[int(g)*groupSlots+m.first()]; e.key == key {
				return e
			}
		}
		if matchEmpty(w) != 0 {
			return nil
		}
		g = (g + step) & mask
	}
}

// insert stores e, whose hash field must be set and whose key must not be
// present (every caller probes first).
func (t *entryTable[P]) insert(e *Entry[P]) {
	if t.live+t.dead >= tableMaxLoadNum*len(t.ctrl) {
		t.rehash()
	}
	t.insertFresh(e)
	t.live++
}

// insertFresh places e into the first free slot of its probe sequence. The
// table must have free capacity.
func (t *entryTable[P]) insertFresh(e *Entry[P]) {
	mask := uint64(len(t.ctrl) - 1)
	g := h1(e.hash) & mask
	for step := uint64(1); ; step++ {
		if m := matchFree(t.ctrl[g]); m != 0 {
			i := m.first()
			if uint8(t.ctrl[g]>>(i*8)) == ctrlDeleted {
				t.dead--
			}
			t.setCtrl(g, i, h2(e.hash))
			t.slots[int(g)*groupSlots+i] = e
			return
		}
		g = (g + step) & mask
	}
}

func (t *entryTable[P]) setCtrl(g uint64, i int, v uint8) {
	shift := uint(i) * 8
	t.ctrl[g] = t.ctrl[g]&^(uint64(0xff)<<shift) | uint64(v)<<shift
}

// del removes e, which must be stored. The slot becomes empty when its group
// still has an empty slot (no probe chain can pass the group, so nothing is
// cut short) and a tombstone otherwise — until the last entry goes: the
// tombstones of an empty table cut no chain, and all become empty.
func (t *entryTable[P]) del(e *Entry[P]) {
	slot := t.locate(e)
	if slot < 0 {
		return // not stored; tolerated for robustness
	}
	g, i := uint64(slot/groupSlots), slot%groupSlots
	t.slots[slot] = nil
	t.live--
	if matchEmpty(t.ctrl[g]) != 0 {
		t.setCtrl(g, i, ctrlEmpty)
	} else {
		t.setCtrl(g, i, ctrlDeleted)
		t.dead++
	}
	if t.live == 0 && t.dead > 0 {
		fill(t.ctrl, emptyWord)
		t.dead = 0
	}
}

// replace puts en, which must carry e's hash, in the slot of stored entry e.
func (t *entryTable[P]) replace(e, en *Entry[P]) {
	if slot := t.locate(e); slot >= 0 {
		t.slots[slot] = en
	}
}

// locate returns the slot holding e, by pointer identity (h2 collisions are
// safe), or -1.
func (t *entryTable[P]) locate(e *Entry[P]) int {
	mask := uint64(len(t.ctrl) - 1)
	g := h1(e.hash) & mask
	hb := h2(e.hash)
	for step := uint64(1); ; step++ {
		w := t.ctrl[g]
		for m := matchByte(w, hb); m != 0; m = m.next() {
			if slot := int(g)*groupSlots + m.first(); t.slots[slot] == e {
				return slot
			}
		}
		if matchEmpty(w) != 0 {
			return -1
		}
		g = (g + step) & mask
	}
}

// rehash makes room for an insert. The table doubles only when its live
// entries alone need the room — more than 25/32 of the slots, abseil's bound,
// which leaves a compacted table 3/32 of its slots before the next rehash;
// one that filled up with tombstones is compacted in place.
func (t *entryTable[P]) rehash() {
	switch groups := len(t.ctrl); {
	case groups == 0:
		t.alloc(1)
	case 32*t.live > 25*len(t.slots):
		t.grow(2 * groups)
	default:
		t.compact()
	}
}

// grow moves the table into empty arrays of the given group count (a power
// of two), re-inserting every live entry by its cached hash — no key bytes
// are touched — and leaves the old arrays to the stock.
func (t *entryTable[P]) grow(groups int) {
	ctrl, slots := t.ctrl, t.slots
	t.alloc(groups)
	for _, e := range slots {
		if e != nil {
			t.insertFresh(e)
		}
	}
	t.stock.put(ctrl, slots)
}

// alloc replaces the backing arrays with empty ones of the given group count
// (a power of two).
func (t *entryTable[P]) alloc(groups int) {
	t.ctrl, t.slots = t.stock.take(groups)
	fill(t.ctrl, emptyWord)
	t.dead = 0
}

// release empties the table and leaves its arrays to the stock.
func (t *entryTable[P]) release() {
	t.stock.put(t.ctrl, t.slots)
	t.ctrl, t.slots, t.live, t.dead = nil, nil, 0, 0
}

// compact drops every tombstone without allocating, the way abseil's
// swiss table rehashes in place. First every full slot is marked pending
// (the tombstone byte, its pointer kept) and every tombstone empty. Then
// each pending entry moves to the first group of its probe sequence with a
// free slot — free counts empty and pending — which is where a fresh insert
// into the settled part of the table would put it: staying put if that is
// its own group, moving into an empty slot, or swapping with another pending
// entry, which is settled next from the same slot. A group is only ever
// probed past once it holds eight settled entries, and settled entries never
// move, so every entry stays reachable from its hash.
func (t *entryTable[P]) compact() {
	for g, w := range t.ctrl {
		full := ^w & msbWord
		t.ctrl[g] = w&msbWord | (full|(full-full>>7))&^(full>>7) // full -> 0xFE, rest -> 0x80
	}
	mask := uint64(len(t.ctrl) - 1)
	for i := range t.slots {
		g, j := uint64(i/groupSlots), i%groupSlots
		for uint8(t.ctrl[g]>>(j*8)) == ctrlDeleted {
			e := t.slots[i]
			to := h1(e.hash) & mask
			for step := uint64(1); matchFree(t.ctrl[to]) == 0; step++ {
				to = (to + step) & mask
			}
			if to == g {
				t.setCtrl(g, j, h2(e.hash))
				break
			}
			k := matchFree(t.ctrl[to]).first()
			dst := int(to)*groupSlots + k
			pending := uint8(t.ctrl[to]>>(k*8)) == ctrlDeleted
			t.setCtrl(to, k, h2(e.hash))
			t.slots[i], t.slots[dst] = t.slots[dst], e
			if !pending {
				t.setCtrl(g, j, ctrlEmpty)
			}
		}
	}
	t.dead = 0
}

// reserve grows the table to hold at least n entries without rehashing
// again. Existing entries are re-inserted by cached hash.
func (t *entryTable[P]) reserve(n int) {
	need := 1
	for need*groupSlots*tableMaxLoadNum/8 < n {
		need *= 2
	}
	if need > len(t.ctrl) {
		t.grow(need)
	}
}

// clear removes every entry, keeping capacity. O(capacity), like clearing a
// built-in map.
func (t *entryTable[P]) clear() {
	fill(t.ctrl, emptyWord)
	clear(t.slots)
	t.live = 0
	t.dead = 0
}

// all calls f for each stored entry until f returns false. Iteration order
// is unspecified. Deleting entries (including the current one) during
// iteration is safe and exact; inserting during iteration is not supported,
// as growth would move entries under the iterator.
func (t *entryTable[P]) all(f func(e *Entry[P]) bool) {
	for _, e := range t.slots {
		if e != nil && !f(e) {
			return
		}
	}
}
