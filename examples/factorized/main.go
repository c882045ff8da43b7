// Factorized: maintain a conjunctive query result in listing and factorized
// representations (paper Section 6.3, Figure 8). On a star join whose
// listing result grows multiplicatively, the factorized payloads stay
// linear while supporting enumeration of the same tuples.
package main

import (
	"fmt"

	"fivm"
)

func main() {
	// Q(P, X, Y, Z) = R1(P,X), R2(P,Y), R3(P,Z): a star join on P.
	q := fivm.MustQuery("star", fivm.NewSchema("P", "X", "Y", "Z"),
		fivm.Rel("R1", fivm.NewSchema("P", "X")),
		fivm.Rel("R2", fivm.NewSchema("P", "Y")),
		fivm.Rel("R3", fivm.NewSchema("P", "Z")),
	)
	mkOrder := func() *fivm.Order {
		return fivm.MustOrder(fivm.V("P", fivm.V("X"), fivm.V("Y"), fivm.V("Z")))
	}

	mkResult := func(mode fivm.CQMode) *fivm.CQResult {
		r, err := fivm.NewCQResult(mode, q, mkOrder(), nil)
		if err != nil {
			panic(err)
		}
		if err := r.Init(); err != nil {
			panic(err)
		}
		return r
	}
	fact := mkResult(fivm.FactPayloads)
	list := mkResult(fivm.ListPayloads)

	// Stream inserts: 25 values of X, Y, Z under each of 5 join keys. The
	// listing result is 5 * 25³ = 78,125 tuples; the factorization stores
	// 5 * (1 + 3*25) values.
	apply := func(r *fivm.CQResult, rel string, schema fivm.Schema, rows ...fivm.Tuple) {
		d := fivm.NewRelation[int64](fivm.IntRing{}, schema)
		for _, t := range rows {
			d.Merge(t, 1)
		}
		if err := r.ApplyDelta(rel, d); err != nil {
			panic(err)
		}
	}
	for p := int64(0); p < 5; p++ {
		for v := int64(0); v < 25; v++ {
			for i, rel := range []string{"R1", "R2", "R3"} {
				schema := fivm.NewSchema("P", q.Rels[i].Schema[1])
				apply(fact, rel, schema, fivm.Ints(p, v))
				apply(list, rel, schema, fivm.Ints(p, v))
			}
		}
	}

	// Pin one epoch of each representation: all counting and enumeration
	// below reads that consistent snapshot (safe even if another goroutine
	// kept streaming updates). A snapshot is a lease: Release gives the
	// epoch's storage back.
	factSnap, listSnap := fact.Snapshot(), list.Snapshot()
	defer factSnap.Release()
	defer listSnap.Release()
	fmt.Printf("result tuples:      %d (both representations agree: %v)\n",
		factSnap.Count(), factSnap.Count() == listSnap.Count())
	fmt.Printf("listing memory:     ~%d KiB\n", list.MemoryBytes()/1024)
	fmt.Printf("factorized memory:  ~%d KiB\n", fact.MemoryBytes()/1024)

	// The factorization still enumerates the exact tuples, constant delay
	// per tuple; print the first three.
	printed := 0
	factSnap.Enumerate(func(t fivm.Tuple) bool {
		fmt.Printf("  tuple %v\n", t)
		printed++
		return printed < 3
	})

	// Deletion shrinks the factorization in place.
	d := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("P", "X"))
	for v := int64(0); v < 25; v++ {
		d.Merge(fivm.Ints(0, v), -1)
	}
	if err := fact.ApplyDelta("R1", d); err != nil {
		panic(err)
	}
	now := fact.Snapshot()
	defer now.Release()
	fmt.Printf("after deleting key 0's R1 tuples: %d tuples (pinned epoch still had %d)\n",
		now.Count(), factSnap.Count())
}
