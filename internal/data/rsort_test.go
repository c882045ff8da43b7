package data

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Adversarial key generators for the radix sort properties: each returns a
// fresh slice designed to stress a distribution-pass edge — empty keys and
// exhausted buckets, 0x00/0xFF boundary bytes, long shared prefixes (the
// depth-advance fast path), heavy duplication (the dedup compaction), and
// length staircases (prefix-precedes-extension ordering).
var rsortCases = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []string
}{
	{"random_bytes", func(rng *rand.Rand, n int) []string {
		out := make([]string, n)
		for i := range out {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			out[i] = string(b)
		}
		return out
	}},
	{"boundary_bytes", func(rng *rand.Rand, n int) []string {
		alphabet := []byte{0x00, 0x01, 0xFE, 0xFF}
		out := make([]string, n)
		for i := range out {
			b := make([]byte, rng.Intn(6))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			out[i] = string(b)
		}
		return out
	}},
	{"shared_prefix", func(rng *rand.Rand, n int) []string {
		prefix := strings.Repeat("\x00p\xffq", 40) // far deeper than any cutoff
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + fmt.Sprint(rng.Intn(n))
		}
		return out
	}},
	{"nested_long_prefix", func(rng *rand.Rand, n int) []string {
		// Every key is a prefix of the longest: a long shared run, then
		// keys exhausted at every depth past it.
		full := strings.Repeat("\x80\x00", 60) + strings.Repeat("\x00\x01", 40)
		out := make([]string, n)
		for i := range out {
			out[i] = full[:100+rng.Intn(len(full)-99)]
		}
		return out
	}},
	{"late_difference", func(rng *rand.Rand, n int) []string {
		// Keys agree on their first hundred-odd bytes and differ at one
		// random late byte, the first key among them.
		base := []byte(strings.Repeat("\x81\x00\x00\x07", 40))
		out := make([]string, n)
		for i := range out {
			b := slices.Clone(base)
			b[120+rng.Intn(40)] = byte(rng.Intn(256))
			out[i] = string(b[:len(b)-rng.Intn(3)])
		}
		return out
	}},
	{"prefix_staircase", func(rng *rand.Rand, n int) []string {
		full := strings.Repeat("ab\x00", 30)
		out := make([]string, n)
		for i := range out {
			out[i] = full[:rng.Intn(len(full)+1)]
		}
		return out
	}},
	{"heavy_dups", func(rng *rand.Rand, n int) []string {
		distinct := []string{"", "\x00", "\x00\x00", "a", "aa", "ab", "\xff", "\xff\xff"}
		out := make([]string, n)
		for i := range out {
			out[i] = distinct[rng.Intn(len(distinct))]
		}
		return out
	}},
	{"encoded_tuples", func(rng *rand.Rand, n int) []string {
		out := make([]string, n)
		for i := range out {
			t := Tuple{Int(int64(rng.Intn(50) - 25)), String(fmt.Sprint(rng.Intn(9))), Float(rng.Float64())}
			out[i] = string(t.AppendKey(nil))
		}
		return out
	}},
}

// rsortSizes crosses the insertion-sort base case (<= radixSortCutoff), the
// first distribution pass, and deep multi-level recursion.
var rsortSizes = []int{0, 1, 2, radixSortCutoff - 1, radixSortCutoff, radixSortCutoff + 1, 500, 4000}

// TestRadixSortKeysMatchesSortStrings is the core equivalence property: the
// key sort must order any set of distinct byte strings exactly as
// sort.Strings does, and keep every one of them.
func TestRadixSortKeysMatchesSortStrings(t *testing.T) {
	for _, tc := range rsortCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for _, n := range rsortSizes {
				seen := map[string]bool{}
				keys := slices.DeleteFunc(tc.gen(rng, n), func(k string) bool {
					dup := seen[k]
					seen[k] = true
					return dup
				})
				want := slices.Clone(keys)
				sort.Strings(want)
				keys = radixSortKeysDedup(keys)
				if !slices.Equal(keys, want) {
					t.Fatalf("n=%d: radix order diverges from sort.Strings\n got %q\nwant %q", n, keys, want)
				}
			}
		})
	}
}

// TestRadixSortKeysDedupMatchesCompact checks the in-pass dedup against the
// reference sort-then-compact pipeline.
func TestRadixSortKeysDedupMatchesCompact(t *testing.T) {
	for _, tc := range rsortCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range rsortSizes {
				keys := tc.gen(rng, n)
				want := slices.Clone(keys)
				sort.Strings(want)
				want = slices.Compact(want)
				got := radixSortKeysDedup(keys)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d: dedup diverges from sort+compact\n got %q\nwant %q", n, got, want)
				}
			}
		})
	}
}

// TestRadixSortEntriesMatchesSortSlice checks the entry-run variant (used by
// buildSnapshot, SortedEntries, and the parallel shard reduce) against a
// comparator sort on the same keys, payload attribution included.
func TestRadixSortEntriesMatchesSortSlice(t *testing.T) {
	for _, tc := range rsortCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for _, n := range rsortSizes {
				keys := tc.gen(rng, n)
				es := make([]Entry[int64], len(keys))
				want := make([]Entry[int64], len(keys))
				for i, k := range keys {
					es[i] = Entry[int64]{key: k, Payload: int64(i)}
					want[i] = es[i]
				}
				sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
				radixSortEntries(es)
				for i := range es {
					if es[i].key != want[i].key {
						t.Fatalf("n=%d: entry key order diverges at %d: got %q want %q", n, i, es[i].key, want[i].key)
					}
				}
				// Equal keys may permute payloads (the radix sort is not
				// stable); check the payload multiset per key instead.
				gotP := map[string][]int64{}
				wantP := map[string][]int64{}
				for i := range es {
					gotP[es[i].key] = append(gotP[es[i].key], es[i].Payload)
					wantP[want[i].key] = append(wantP[want[i].key], want[i].Payload)
				}
				for k, ps := range gotP {
					ws := wantP[k]
					slices.Sort(ps)
					slices.Sort(ws)
					if !slices.Equal(ps, ws) {
						t.Fatalf("n=%d: payloads for key %q scrambled: got %v want %v", n, k, ps, ws)
					}
				}
			}
		})
	}
}
