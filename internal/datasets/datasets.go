// Package datasets synthesizes the paper's three evaluation workloads
// (Section 7 and Appendix C.1) at configurable scale:
//
//   - Retailer: a snowflake schema with a large Inventory fact relation
//     joining dimension hierarchies Item, Weather, Location, and Census —
//     43 attributes in total, matching the paper's schema shape. The
//     original is proprietary; this generator reproduces the join-key
//     sharing pattern and relative cardinalities, which are what drive the
//     reported effects (view counts, O(1) vs O(n) update costs).
//   - Housing: the synthetic star schema of six relations joining on a
//     common postcode, 27 attributes, with the paper's scale knob.
//   - Twitter: a heavy-tailed random digraph standing in for the Higgs
//     Twitter dataset, split into three equal edge relations R(A,B),
//     S(B,C), T(C,A) for the triangle query.
//
// It also synthesizes the update streams: insertions interleaved across
// relations in round-robin fashion and grouped into fixed-size batches.
package datasets

import (
	"math/rand"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/vorder"
)

// Dataset bundles a query, a variable order, and generated contents.
type Dataset struct {
	Name  string
	Query query.Query
	// NewOrder returns a fresh copy of the dataset's canonical variable
	// order (orders hold per-query state, so each engine needs its own).
	NewOrder func() *vorder.Order
	// Tuples holds the generated contents per relation.
	Tuples map[string][]data.Tuple
	// Largest names the largest relation (the ONE-scenario update target).
	Largest string
}

// TotalTuples returns the total number of generated tuples.
func (d *Dataset) TotalTuples() int {
	n := 0
	for _, ts := range d.Tuples {
		n += len(ts)
	}
	return n
}

// Batch is one update batch: tuples to insert into (or delete from) one
// relation.
type Batch struct {
	Rel    string
	Tuples []data.Tuple
}

// RoundRobinStream interleaves the dataset's tuples into a stream of
// batches of the given size, cycling through the relations in name order as
// the paper's stream synthesis does. Relations exhaust at different times;
// the stream continues with the remaining ones.
func RoundRobinStream(d *Dataset, relNames []string, batchSize int) []Batch {
	offsets := make(map[string]int, len(relNames))
	var out []Batch
	for {
		progressed := false
		for _, rel := range relNames {
			ts := d.Tuples[rel]
			off := offsets[rel]
			if off >= len(ts) {
				continue
			}
			end := off + batchSize
			if end > len(ts) {
				end = len(ts)
			}
			out = append(out, Batch{Rel: rel, Tuples: ts[off:end]})
			offsets[rel] = end
			progressed = true
		}
		if !progressed {
			return out
		}
	}
}

// SingleRelationStream batches only one relation's tuples (the ONE
// scenario: a stream over the largest relation with all others static).
func SingleRelationStream(d *Dataset, rel string, batchSize int) []Batch {
	ts := d.Tuples[rel]
	var out []Batch
	for off := 0; off < len(ts); off += batchSize {
		end := off + batchSize
		if end > len(ts) {
			end = len(ts)
		}
		out = append(out, Batch{Rel: rel, Tuples: ts[off:end]})
	}
	return out
}

// ri returns a random integer value in [0, n).
func ri(rng *rand.Rand, n int) data.Value { return data.Int(int64(rng.Intn(n))) }
