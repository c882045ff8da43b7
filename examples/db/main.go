// DB quickstart: the database-style surface. One fivm.DB owns the base
// relations; any number of maintained views — each with its own ring and
// group-by — register against it; every Apply ingests a batch exactly once
// and fans it out to all of them, publishing one consistent cross-view
// epoch. Views can be created (backfilled) and dropped mid-stream.
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
	if err != nil {
		panic(err)
	}
	defer d.Close()

	// View 1: COUNT grouped by A, in the Z ring, order auto-chosen by the
	// cost-based optimizer (nil Order).
	qCnt := fivm.MustQuery("cntByA", fivm.NewSchema("A"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")))
	if _, err := fivm.CreateView[int64](d, "cntByA", qCnt, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{}); err != nil {
		panic(err)
	}

	// View 2: the paper's running example as SQL DDL, maintained in R.
	if _, err := d.Exec(`CREATE VIEW sums AS
		SELECT S.A, S.C, SUM(R.B * T.D * S.E)
		FROM R NATURAL JOIN S NATURAL JOIN T
		GROUP BY S.A, S.C`); err != nil {
		panic(err)
	}

	// Stream updates: each Apply is ingested once for every view.
	ins := func(rel string, rows ...[]int64) fivm.DBUpdate {
		ts := make([]fivm.Tuple, len(rows))
		for i, r := range rows {
			ts[i] = fivm.Ints(r...)
		}
		return fivm.InsertInto(rel, ts...)
	}
	must(d.Apply([]fivm.DBUpdate{
		ins("R", []int64{1, 10}, []int64{2, 20}),
		ins("S", []int64{1, 5, 2}, []int64{2, 5, 3}),
		ins("T", []int64{5, 4}),
	}))

	// A late view backfills from the current bases: it starts life exactly
	// as if it had been registered before the stream began.
	qByC := fivm.MustQuery("cntByC", fivm.NewSchema("C"),
		fivm.Rel("S", fivm.NewSchema("A", "C", "E")),
		fivm.Rel("T", fivm.NewSchema("C", "D")))
	if _, err := fivm.CreateView[int64](d, "cntByC", qByC, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{}); err != nil {
		panic(err)
	}

	must(d.Apply([]fivm.DBUpdate{
		ins("R", []int64{1, 11}),
		fivm.DeleteFrom("R", fivm.Ints(2, 20)),
	}))

	// Read everything from one cross-view epoch: all views at the same
	// applied prefix, lock-free, while maintenance could keep streaming.
	e := d.Epoch()
	defer e.Release() // an epoch is a lease; its snapshots are valid until here
	fmt.Printf("epoch after %d batches, views %v\n", e.Applied, e.Views())
	cnt := fivm.ViewSnapshotOf[int64](e, "cntByA").Result()
	for _, en := range cnt.SortedEntries() {
		fmt.Printf("  cntByA%v = %d\n", en.Tuple, en.Payload)
	}
	sums := fivm.ViewSnapshotOf[float64](e, "sums").Result()
	for _, en := range sums.SortedEntries() {
		fmt.Printf("  sums%v = %g\n", en.Tuple, en.Payload)
	}
	byC := fivm.ViewSnapshotOf[int64](e, "cntByC").Result()
	for _, en := range byC.SortedEntries() {
		fmt.Printf("  cntByC%v = %d\n", en.Tuple, en.Payload)
	}

	// Typed readers serve point lookups; DropView retires a view while
	// pinned epochs stay readable.
	rd, err := fivm.ViewReader[float64](d, "sums")
	if err != nil {
		panic(err)
	}
	defer rd.Close()
	if sum, ok := rd.Lookup(fivm.Ints(1, 5)); ok {
		fmt.Printf("reader: sums[1,5] = %g\n", sum)
	}
	must(d.DropView("cntByA"))
	after := d.Epoch()
	defer after.Release()
	fmt.Printf("after drop: views %v\n", after.Views())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
