package data

// MSD byte-string radix sort for the snapshot publish/reduce path. The key
// codec (Tuple.AppendKey) is order-preserving per kind and self-delimiting,
// so byte-lexicographic order on encoded keys IS tuple order — exactly what
// a most-significant-digit radix sort distributes on, one byte per level,
// with no comparator calls at all.
//
// The implementation is American-flag style: one counting pass per level,
// then an in-place cycle permutation that swaps each element directly into
// its bucket region, then recursion into the byte buckets. Two refinements
// keep it allocation-free and robust on adversarial keys:
//
//   - Counts live in per-level stack arrays ([257]int, ~2 KiB) instead of a
//     heap scratch struct, and the permutation is in place, so sorting needs
//     no auxiliary storage at any size. Long shared prefixes do not deepen
//     the recursion either: msdKeys advances the depth iteratively while a
//     level's keys all continue with one byte, and msdBy skips the bytes a
//     run's keys all share in one pass.
//   - Runs at or below radixSortCutoff fall back to insertion sort on the
//     key suffixes (every key in a bucket shares the first depth bytes), the
//     usual MSD base case where distribution overhead exceeds comparison.
//
// Bucket 0 holds the keys exhausted at the current depth (len == depth);
// they sort before every continuing key, matching byte-string order where a
// prefix precedes its extensions. The key sort exploits that exhausted keys
// within one bucket are all equal: the dirty-key path drops duplicates
// during the distribution passes instead of a separate sort+compact loop.

// radixSortCutoff is the run length at or below which insertion sort beats
// another distribution pass.
const radixSortCutoff = 32

// radixSortKeysDedup sorts encoded tuple keys in place into
// byte-lexicographic order, comparator-free and allocation-free, and drops
// duplicates during the distribution passes, returning the sorted unique
// prefix of the slice.
func radixSortKeysDedup(keys []string) []string {
	return keys[:msdKeys(keys, 0)]
}

// keyBucket maps a key to its distribution bucket at the given depth:
// 0 for keys exhausted at depth, 1+b for keys continuing with byte b.
func keyBucket(k string, depth int) int {
	if len(k) == depth {
		return 0
	}
	return 1 + int(k[depth])
}

// msdKeys sorts keys[.] by their suffixes from depth, compacts the unique
// ones to the front and returns their count.
func msdKeys(keys []string, depth int) int {
	for {
		n := len(keys)
		if n < 2 {
			return n
		}
		if n <= radixSortCutoff {
			return insertionKeys(keys, depth)
		}
		var counts [257]int
		for _, k := range keys {
			counts[keyBucket(k, depth)]++
		}
		if counts[0] == n {
			// Every key ends here, so all n are equal.
			return 1
		}
		if counts[0] == 0 {
			// Shared-prefix fast path: all keys continue with one byte —
			// advance the depth without recursing (or permuting).
			single := false
			for b := 1; b <= 256; b++ {
				if counts[b] == n {
					single = true
					break
				}
				if counts[b] != 0 {
					break
				}
			}
			if single {
				depth++
				continue
			}
		}
		// American-flag permutation: pos tracks each bucket's next unplaced
		// slot, ends its region boundary; the element at pos[b] is either
		// already home (advance) or swapped into its own bucket's next slot,
		// so every swap places at least one element — O(n) swaps total.
		var pos, ends [257]int
		at := 0
		for b := 0; b <= 256; b++ {
			pos[b] = at
			at += counts[b]
			ends[b] = at
		}
		starts := pos
		for b := 0; b <= 256; b++ {
			for pos[b] < ends[b] {
				k := keys[pos[b]]
				bb := keyBucket(k, depth)
				if bb == b {
					pos[b]++
					continue
				}
				keys[pos[b]] = keys[pos[bb]]
				keys[pos[bb]] = k
				pos[bb]++
			}
		}
		// Compaction: the exhausted bucket's keys are all equal (one
		// survives), each byte bucket dedups recursively and its survivors
		// shift left over the dropped slots.
		w := counts[0]
		if w > 1 {
			w = 1
		}
		for b := 1; b <= 256; b++ {
			sub := keys[starts[b]:ends[b]]
			m := msdKeys(sub, depth+1)
			copy(keys[w:w+m], sub[:m])
			w += m
		}
		return w
	}
}

// insertionKeys is the insertion-sort base case on key suffixes from depth;
// an element equal to one already placed is dropped during its insertion
// scan. Returns the number of keys kept (compacted in front).
func insertionKeys(keys []string, depth int) int {
	w := 1
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		ks := k[depth:]
		j := w
		for j > 0 && keys[j-1][depth:] > ks {
			j--
		}
		if j > 0 && keys[j-1][depth:] == ks {
			continue
		}
		copy(keys[j+1:w+1], keys[j:w])
		keys[j] = k
		w++
	}
	return w
}

// radixSortEntries sorts an entry run in place by encoded key, the same
// order radixSortKeysDedup produces. Entries move by value, so the sort is
// allocation-free.
func radixSortEntries[P any](es []Entry[P]) {
	msdBy(es, func(e *Entry[P]) string { return e.key }, 0)
}

// radixSortEntryPtrs is radixSortEntries for entries left in place and
// ordered through their pointers: a snapshot's run, ReduceSealed's, and the
// base store's checkpoint order, sorted in the entry table's own slots.
func radixSortEntryPtrs[P any](es []*Entry[P]) {
	msdBy(es, func(e **Entry[P]) string { return (*e).key }, 0)
}

// msdBy is msdKeys for elements that carry their key. A run first skips, in
// one pass, the bytes every key in it shares, rather than one counting pass
// per shared byte: fixed-width keys of small numbers share most of theirs.
func msdBy[T any](es []T, key func(*T) string, depth int) {
	n := len(es)
	if n < 2 {
		return
	}
	if n <= radixSortCutoff {
		insertionBy(es, key, depth)
		return
	}
	k0 := key(&es[0])
	p := len(k0)
	for i := 1; i < n && p > depth; i++ {
		k := key(&es[i])
		p = min(p, len(k))
		if k[depth:p] != k0[depth:p] {
			j := depth
			for k[j] == k0[j] {
				j++
			}
			p = j
		}
	}
	depth = p
	var counts [257]int
	for i := range es {
		counts[keyBucket(key(&es[i]), depth)]++
	}
	if counts[0] == n {
		return // relation keys are unique, but equal runs are sorted anyway
	}
	var pos, ends [257]int
	at := 0
	for b := 0; b <= 256; b++ {
		pos[b] = at
		at += counts[b]
		ends[b] = at
	}
	starts := pos
	for b := 0; b <= 256; b++ {
		for pos[b] < ends[b] {
			bb := keyBucket(key(&es[pos[b]]), depth)
			if bb == b {
				pos[b]++
				continue
			}
			es[pos[b]], es[pos[bb]] = es[pos[bb]], es[pos[b]]
			pos[bb]++
		}
	}
	for b := 1; b <= 256; b++ {
		if ends[b]-starts[b] > 1 {
			msdBy(es[starts[b]:ends[b]], key, depth+1)
		}
	}
}

func insertionBy[T any](es []T, key func(*T) string, depth int) {
	for i := 1; i < len(es); i++ {
		ks := key(&es[i])[depth:]
		e := es[i]
		j := i
		for j > 0 && key(&es[j-1])[depth:] > ks {
			es[j] = es[j-1]
			j--
		}
		es[j] = e
	}
}
