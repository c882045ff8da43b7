// Quickstart: maintain the paper's running example (Example 1.1) — the
// query
//
//	SELECT S.A, S.C, SUM(R.B * T.D * S.E)
//	FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY S.A, S.C
//
// under inserts and deletes, on a fivm.DB: the DB owns the base relations
// once, every Apply ingests a batch exactly once for all registered views,
// and each batch publishes one consistent cross-view epoch. Views can be
// created (backfilled) and dropped mid-stream.
package main

import (
	"fmt"

	"fivm"
)

func main() {
	// The base relations, registered once at Open.
	d, err := fivm.Open(fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C", "E"),
		"T": fivm.NewSchema("C", "D"),
	}, fivm.DBOptions{})
	must(err)
	defer d.Close()

	// View Q: R(A,B) ⋈ S(A,C,E) ⋈ T(C,D), group by A and C, SUM(B*D*E) in
	// the Z ring. Lifting: the summed variables B, D, E contribute their
	// value; everything else lifts to 1.
	q := fivm.MustQuery("Q", fivm.NewSchema("A", "C"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")),
		fivm.Rel("T", fivm.NewSchema("C", "D")),
	)
	lift := func(v string, x fivm.Value) int64 {
		switch v {
		case "B", "D", "E":
			return x.AsInt()
		default:
			return 1
		}
	}
	// The variable order of Figure 2a, handpicked: A on top, B and C below
	// it, D and E under C. It dictates which partial aggregates are pushed
	// past joins; a single-tuple update to S costs O(1). (A nil Order lets
	// the cost-based optimizer choose.)
	fig2a := func() *fivm.Order {
		return fivm.MustOrder(fivm.V("A", fivm.V("B"), fivm.V("C", fivm.V("D"), fivm.V("E"))))
	}
	_, err = fivm.CreateView[int64](d, "Q", q, fivm.IntRing{}, lift, fivm.ViewOptions{Order: fig2a})
	must(err)

	// The same query as SQL DDL, maintained in the R ring.
	_, err = d.Exec(`CREATE VIEW sums AS
		SELECT S.A, S.C, SUM(R.B * T.D * S.E)
		FROM R NATURAL JOIN S NATURAL JOIN T
		GROUP BY S.A, S.C`)
	must(err)

	// One Apply maintains every view. Updates carry multiplicities:
	// InsertInto +1, DeleteFrom -1.
	must(d.Apply([]fivm.DBUpdate{
		fivm.InsertInto("R", fivm.Ints(1, 10), fivm.Ints(2, 20)),
		fivm.InsertInto("S", fivm.Ints(1, 7, 3), fivm.Ints(2, 8, 5)),
		fivm.InsertInto("T", fivm.Ints(7, 100), fivm.Ints(8, 200)),
	}))

	// A late view backfills from the current bases: it starts life exactly
	// as if it had been registered before the stream began.
	qByC := fivm.MustQuery("cntByC", fivm.NewSchema("C"),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")),
		fivm.Rel("T", fivm.NewSchema("C", "D")))
	_, err = fivm.CreateView[int64](d, "cntByC", qByC, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{})
	must(err)
	show(d, "after inserts")

	// A reader pins view Q at the current epoch; it reads lock-free, from
	// any goroutine, while maintenance goes on.
	rd, err := fivm.ViewReader[int64](d, "Q")
	must(err)
	defer rd.Close() // gives the pinned epoch's storage back

	// Delete one S tuple: the group (1,7) disappears.
	must(d.Apply([]fivm.DBUpdate{fivm.DeleteFrom("S", fivm.Ints(1, 7, 3))}))
	if p, ok := rd.Lookup(fivm.Ints(1, 7)); ok {
		fmt.Printf("pinned reader still serves Q(1,7) = %d\n", p)
	}
	rd.Refresh()
	_, ok := rd.Lookup(fivm.Ints(1, 7))
	fmt.Printf("after Refresh: Q(1,7) present = %v\n", ok)

	// DropView retires a view mid-stream; epochs pinned before stay readable.
	must(d.DropView("cntByC"))
	show(d, "after deleting S(1,7,3) and dropping cntByC")
}

// show prints every view of the latest epoch: all of them at the same
// applied prefix of the stream.
func show(d *fivm.DB, title string) {
	e := d.Epoch()
	defer e.Release() // an epoch is a lease; its snapshots are valid until here
	fmt.Printf("%s (%d batches applied):\n", title, e.Applied)
	for _, name := range e.Views() {
		if s := fivm.ViewSnapshotOf[int64](e, name); s != nil {
			for _, en := range s.Result().SortedEntries() {
				fmt.Printf("  %s%v = %d\n", name, en.Tuple, en.Payload)
			}
		}
		if s := fivm.ViewSnapshotOf[float64](e, name); s != nil {
			for _, en := range s.Result().SortedEntries() {
				fmt.Printf("  %s%v = %g\n", name, en.Tuple, en.Payload)
			}
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
