// Quickstart: maintain the paper's running example (Example 1.1) — the
// query
//
//	SELECT S.A, S.C, SUM(R.B * T.D * S.E)
//	FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY S.A, S.C
//
// under inserts and deletes, with F-IVM's view tree doing O(1) work for
// single-tuple updates to S.
package main

import (
	"fmt"

	"fivm"
)

func main() {
	// The query: R(A,B) ⋈ S(A,C,E) ⋈ T(C,D), group by A and C,
	// SUM(B*D*E) in the Z ring.
	q := fivm.MustQuery("Q", fivm.NewSchema("A", "C"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")),
		fivm.Rel("T", fivm.NewSchema("C", "D")),
	)

	// The variable order of Figure 2a: A on top, B and C below it, D and E
	// under C. It dictates which partial aggregates are pushed past joins.
	ord := fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C", fivm.V("D"), fivm.V("E"))))

	// Lifting: bound variables B, D, E contribute their value to the sum;
	// everything else lifts to 1.
	lift := func(v string, x fivm.Value) int64 {
		switch v {
		case "B", "D", "E":
			return x.AsInt()
		default:
			return 1
		}
	}

	eng, err := fivm.NewEngine[int64](q, ord, fivm.IntRing{}, lift, fivm.EngineOptions[int64]{})
	if err != nil {
		panic(err)
	}
	if err := eng.Init(); err != nil {
		panic(err)
	}

	// Insert some tuples. Deltas are relations: keys map to multiplicities
	// (negative = delete).
	insert := func(rel string, schema fivm.Schema, rows ...fivm.Tuple) {
		d := fivm.NewRelation[int64](fivm.IntRing{}, schema)
		for _, t := range rows {
			d.Merge(t, 1)
		}
		if err := eng.ApplyDelta(rel, d); err != nil {
			panic(err)
		}
	}
	insert("R", fivm.NewSchema("A", "B"), fivm.Ints(1, 10), fivm.Ints(2, 20))
	insert("S", fivm.NewSchema("A", "C", "E"), fivm.Ints(1, 7, 3), fivm.Ints(2, 8, 5))
	insert("T", fivm.NewSchema("C", "D"), fivm.Ints(7, 100), fivm.Ints(8, 200))

	// Read through the snapshot API: every applied batch publishes a
	// consistent epoch, and a Reader pins one — safe even while another
	// goroutine keeps applying deltas (eng.Result() would be a live,
	// unsynchronized handle).
	reader := fivm.NewReader[int64](eng)
	defer reader.Close() // gives the pinned epoch's storage back
	fmt.Printf("after inserts (epoch %d):\n", reader.Epoch())
	for _, e := range reader.Snapshot().Result().SortedEntries() {
		fmt.Printf("  (A,C)=%v -> SUM(B*D*E)=%d\n", e.Tuple, e.Payload)
	}

	// Delete one S tuple: same mechanism, negative payload.
	del := fivm.NewRelation[int64](fivm.IntRing{}, fivm.NewSchema("A", "C", "E"))
	del.Merge(fivm.Ints(1, 7, 3), -1)
	if err := eng.ApplyDelta("S", del); err != nil {
		panic(err)
	}

	// The pinned reader still serves the pre-delete epoch; Refresh moves it
	// to the freshest published state.
	if p, ok := reader.Lookup(fivm.Ints(1, 7)); ok {
		fmt.Printf("pinned epoch %d still serves (1,7) -> %d\n", reader.Epoch(), p)
	}
	reader.Refresh()
	fmt.Printf("after deleting S(1,7,3) (epoch %d):\n", reader.Epoch())
	for _, e := range reader.Snapshot().Result().SortedEntries() {
		fmt.Printf("  (A,C)=%v -> SUM(B*D*E)=%d\n", e.Tuple, e.Payload)
	}
	fmt.Printf("materialized views: %d\n", eng.ViewCount())
}
