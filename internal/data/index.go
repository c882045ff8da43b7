package data

import (
	"fmt"
	"unsafe"
)

// Index is a secondary hash index over a relation: it maps the encoded
// projection of each key onto an index schema to the set of entries sharing
// that projection. Buckets hold the relation's entry pointers directly, so a
// probe yields tuples and payloads without a second lookup in the primary
// table. Delta propagation probes sibling views through indexes to
// enumerate join partners without scanning.
//
// The bucket directory is the same group-probed table as the primary
// storage (see swiss.go), with one directory node per distinct projected
// key whose payload is the bucket set; buckets themselves are hybrid
// slice/table EntrySets (see entryset.go). A node whose bucket runs empty
// leaves the directory and waits in free, key bytes included, for the next
// key that appears; the bucket's storage goes to stock, by size class, for
// whichever bucket next needs that much (tableStock), so a table is sized for
// its bucket, not for the largest one its node ever hosted. Nothing outside
// the index holds either, and a bucket handed out by ProbeBytes is only valid
// until the relation's next mutation anyway, so reuse is immediate.
type Index[P any] struct {
	proj   Projector
	dir    entryTable[*EntrySet[P]]
	free   []*Entry[*EntrySet[P]]
	stock  tableStock[P]
	keyBuf []byte
}

// NewIndex creates an empty index over the given relation schema, keyed by
// the on-variables.
func NewIndex[P any](relSchema, on Schema) *Index[P] {
	return &Index[P]{proj: MustProjector(relSchema, on)}
}

// Add records that entry e is present in the relation.
func (ix *Index[P]) Add(e *Entry[P]) {
	ix.keyBuf = ix.proj.AppendKey(ix.keyBuf[:0], e.Tuple)
	h := hashBytes(ix.keyBuf)
	node := ix.dir.getBytes(h, ix.keyBuf)
	if node == nil {
		if n := len(ix.free); n > 0 {
			node, ix.free = ix.free[n-1], ix.free[:n-1]
		} else {
			node = &Entry[*EntrySet[P]]{Payload: &EntrySet[P]{tab: entryTable[P]{stock: &ix.stock}}}
		}
		// The node's key is a string over bytes its bucket owns, so a reused
		// node re-keys without allocating.
		set := node.Payload
		set.key = append(set.key[:0], ix.keyBuf...)
		node.key, node.hash = unsafe.String(unsafe.SliceData(set.key), len(set.key)), h
		ix.dir.insert(node)
	}
	node.Payload.add(e)
}

// Remove records that entry e is gone from the relation.
func (ix *Index[P]) Remove(e *Entry[P]) {
	node := ix.node(e)
	if node == nil {
		return
	}
	node.Payload.remove(e)
	if node.Payload.Len() == 0 {
		ix.dir.del(node)
		node.Payload.release()
		ix.free = append(ix.free, node)
	}
}

// replace records that entry e gave its place to en, a copy under the same
// key (Relation.replace).
func (ix *Index[P]) replace(e, en *Entry[P]) {
	if node := ix.node(e); node != nil {
		node.Payload.replace(e, en)
	}
}

// node returns the directory node of e's bucket, or nil.
func (ix *Index[P]) node(e *Entry[P]) *Entry[*EntrySet[P]] {
	ix.keyBuf = ix.proj.AppendKey(ix.keyBuf[:0], e.Tuple)
	return ix.dir.getBytes(hashBytes(ix.keyBuf), ix.keyBuf)
}

// ProbeBytes returns the bucket of entries whose projection matches the key
// encoded in a caller-owned scratch buffer, without allocating; a miss
// returns nil, which iterates and counts as an empty set. The bucket is owned
// by the index and must not be modified.
func (ix *Index[P]) ProbeBytes(key []byte) *EntrySet[P] {
	if node := ix.dir.getBytes(hashBytes(key), key); node != nil {
		return node.Payload
	}
	return nil
}

// IndexedRelation wraps a Relation with incrementally maintained secondary
// indexes. Mutations must go through MergeAllIndexed so the indexes stay
// consistent with key appearance, disappearance and replacement: in a
// publishing relation even a merge onto a stored key can replace its entry.
type IndexedRelation[P any] struct {
	*Relation[P]
	indexes map[string]*Index[P]
}

// NewIndexedRelation wraps an empty relation.
func NewIndexedRelation[P any](rel *Relation[P]) *IndexedRelation[P] {
	return &IndexedRelation[P]{Relation: rel, indexes: make(map[string]*Index[P])}
}

// EnsureIndex returns the index on the given variables, creating and
// populating it from the current contents if needed.
func (ir *IndexedRelation[P]) EnsureIndex(on Schema) *Index[P] {
	name := on.String()
	if ix, ok := ir.indexes[name]; ok {
		return ix
	}
	ix := NewIndex[P](ir.Schema(), on)
	ir.entries.all(func(e *Entry[P]) bool {
		ix.Add(e)
		return true
	})
	ir.indexes[name] = ix
	return ix
}

// PoolStats is the relation's, with the bucket storage of its indexes.
func (ir *IndexedRelation[P]) PoolStats() PoolStats {
	ps := ir.Relation.PoolStats()
	for _, ix := range ir.indexes {
		ps.TableBytes += ix.stock.ctrl.bytes + ix.stock.slots.bytes
	}
	return ps
}

// reindex follows a merge from old, the entry stored under its key before, to
// en, the one after (nil: none) in every index. A removed or replaced entry is
// parked or retired by then but intact: Remove and replace still read its
// tuple.
func (ir *IndexedRelation[P]) reindex(old, en *Entry[P]) {
	if old == en {
		return
	}
	for _, ix := range ir.indexes {
		switch {
		case old == nil:
			ix.Add(en)
		case en == nil:
			ix.Remove(old)
		default: // replaced
			ix.replace(old, en)
		}
	}
}

// MergeAllIndexed merges every entry of o, maintaining indexes, by the key
// and hash each source entry already carries (mergeFrom). A source over the
// same variables in another order is projected first; every maintenance path
// hands in the view's own order.
func (ir *IndexedRelation[P]) MergeAllIndexed(o *Relation[P]) {
	if !ir.Schema().Equal(o.Schema()) {
		if !ir.Schema().SameSet(o.Schema()) {
			panic(fmt.Sprintf("data: merge of incompatible schemas %v and %v", ir.Schema(), o.Schema()))
		}
		o = Project(o, ir.Schema())
	}
	o.entries.all(func(e *Entry[P]) bool {
		ir.reindex(ir.mergeFrom(e, o.pooled))
		return true
	})
}
