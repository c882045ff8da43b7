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
//
// A generator sizes each relation from its config and cuts the relation's
// tuples from one block of cells, so it buys a fixed number of objects
// however many tuples it makes. The tuples share that block and are
// capacity-capped: a reader may keep them, and an append copies one, but
// nobody may write a generated tuple's cells in place. A stream's batches are
// sub-slices of the relations and copy nothing.
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
// the stream continues with the remaining ones. relNames names each relation
// once.
func RoundRobinStream(d *Dataset, relNames []string, batchSize int) []Batch {
	n := 0
	for _, rel := range relNames {
		n += (len(d.Tuples[rel]) + batchSize - 1) / batchSize
	}
	out := make([]Batch, 0, n)
	for off := 0; len(out) < n; off += batchSize {
		for _, rel := range relNames {
			if ts := d.Tuples[rel]; off < len(ts) {
				out = append(out, Batch{Rel: rel, Tuples: ts[off:min(off+batchSize, len(ts))]})
			}
		}
	}
	return out
}

// SingleRelationStream batches only one relation's tuples (the ONE
// scenario: a stream over the largest relation with all others static).
func SingleRelationStream(d *Dataset, rel string, batchSize int) []Batch {
	ts := d.Tuples[rel]
	out := make([]Batch, 0, (len(ts)+batchSize-1)/batchSize)
	for off := 0; off < len(ts); off += batchSize {
		out = append(out, Batch{Rel: rel, Tuples: ts[off:min(off+batchSize, len(ts))]})
	}
	return out
}

// carve returns n tuples of the given arity, cut from one block of cells.
// Each is capacity-capped, so an append to one copies it instead of writing
// into its neighbour.
func carve(n, arity int) []data.Tuple {
	cells := make([]data.Value, n*arity)
	ts := make([]data.Tuple, n)
	for i := range ts {
		ts[i] = cells[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return ts
}

// ri returns a random integer value in [0, n).
func ri(rng *rand.Rand, n int) data.Value { return data.Int(int64(rng.Intn(n))) }
