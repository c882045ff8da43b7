package fivm_test

import (
	"fmt"

	"fivm"
)

// The catalog shared by the examples: two base relations joined on A.
func exampleCatalog() fivm.SQLCatalog {
	return fivm.SQLCatalog{
		"R": fivm.NewSchema("A", "B"),
		"S": fivm.NewSchema("A", "C"),
	}
}

func ExampleOpen() {
	d, err := fivm.Open(exampleCatalog(), fivm.DBOptions{})
	if err != nil {
		panic(err)
	}
	defer d.Close()
	fmt.Println(d.Relations())
	// Output: [R S]
}

func ExampleCreateView() {
	d, _ := fivm.Open(exampleCatalog(), fivm.DBOptions{})
	defer d.Close()

	// A COUNT view grouped by A, in the Z ring. The nil order lets the
	// cost-based optimizer pick the variable order.
	q := fivm.MustQuery("byA", fivm.NewSchema("A"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C")))
	v, err := fivm.CreateView[int64](d, "byA", q, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(d.Views(), v.Query().Name)
	// Output: [byA] byA
}

func ExampleDB_Apply() {
	d, _ := fivm.Open(exampleCatalog(), fivm.DBOptions{})
	defer d.Close()
	q := fivm.MustQuery("byA", fivm.NewSchema("A"),
		fivm.Rel("R", fivm.NewSchema("A", "B")),
		fivm.Rel("S", fivm.NewSchema("A", "C")))
	fivm.CreateView[int64](d, "byA", q, fivm.IntRing{}, fivm.CountLift, fivm.ViewOptions{})

	// One Apply ingests the batch once and maintains every registered view;
	// deletions are updates with negative multiplicity.
	d.Apply([]fivm.DBUpdate{
		fivm.InsertInto("R", fivm.Tuple{fivm.Int(1), fivm.Int(10)}, fivm.Tuple{fivm.Int(1), fivm.Int(11)}),
		fivm.InsertInto("S", fivm.Tuple{fivm.Int(1), fivm.Int(7)}),
	})
	d.Apply([]fivm.DBUpdate{
		fivm.DeleteFrom("R", fivm.Tuple{fivm.Int(1), fivm.Int(11)}),
	})

	// An epoch is a lease on one consistent state of every view.
	e := d.Epoch()
	defer e.Release()
	cnt, _ := fivm.ViewSnapshotOf[int64](e, "byA").Result().Get(fivm.Tuple{fivm.Int(1)})
	fmt.Println(cnt)
	// Output: 1
}

func ExampleViewReader() {
	d, _ := fivm.Open(exampleCatalog(), fivm.DBOptions{})
	defer d.Close()

	// Views can be defined in SQL; Exec drives CREATE VIEW / DROP VIEW.
	if _, err := d.Exec("CREATE VIEW sums AS SELECT A, SUM(B * C) FROM R NATURAL JOIN S GROUP BY A"); err != nil {
		panic(err)
	}
	d.Apply([]fivm.DBUpdate{
		fivm.InsertInto("R", fivm.Tuple{fivm.Int(1), fivm.Int(3)}),
		fivm.InsertInto("S", fivm.Tuple{fivm.Int(1), fivm.Int(5)}),
	})

	// A reader pins the latest cross-view epoch and reads lock-free from
	// any goroutine; Refresh advances it after later batches.
	rd, err := fivm.ViewReader[float64](d, "sums")
	if err != nil {
		panic(err)
	}
	defer rd.Close() // gives the pinned epoch back
	sum, ok := rd.Lookup(fivm.Tuple{fivm.Int(1)})
	fmt.Println(sum, ok)
	// Output: 15 true
}
