// SQL: parse the paper's SQL dialect and maintain the query with F-IVM.
// The front-end turns `SELECT ..., SUM(...) FROM ... NATURAL JOIN ... GROUP
// BY ...` into the internal join-aggregate form plus lifting functions; a
// variable order is derived automatically.
package main

import (
	"fmt"

	"fivm"
)

func main() {
	catalog := fivm.SQLCatalog{
		"Orders":    fivm.NewSchema("customer", "item", "quantity"),
		"Items":     fivm.NewSchema("item", "price"),
		"Customers": fivm.NewSchema("customer", "region"),
	}
	parsed, err := fivm.ParseSQL(`
		SELECT region, SUM(quantity * price)
		FROM Orders NATURAL JOIN Items NATURAL JOIN Customers
		GROUP BY region;`, catalog)
	if err != nil {
		panic(err)
	}

	// Derive a variable order heuristically and build the engine over Z.
	ord, err := fivm.BuildOrder(parsed.Query)
	if err != nil {
		panic(err)
	}
	eng, err := fivm.NewEngine[int64](parsed.Query, ord, fivm.IntRing{}, parsed.LiftInt(),
		fivm.EngineOptions[int64]{})
	if err != nil {
		panic(err)
	}
	if err := eng.Init(); err != nil {
		panic(err)
	}

	insert := func(rel string, rows ...fivm.Tuple) {
		d := fivm.NewRelation[int64](fivm.IntRing{}, catalog[rel])
		for _, t := range rows {
			d.Merge(t, 1)
		}
		if err := eng.ApplyDelta(rel, d); err != nil {
			panic(err)
		}
	}
	insert("Items", fivm.Ints(1, 10), fivm.Ints(2, 25))
	insert("Customers", fivm.Ints(100, 1), fivm.Ints(101, 2))
	insert("Orders",
		fivm.Ints(100, 1, 3), // region 1: 3×10
		fivm.Ints(100, 2, 1), // region 1: 1×25
		fivm.Ints(101, 2, 4), // region 2: 4×25
	)

	// A snapshot is a lease on one published epoch: read, then Release.
	show := func() {
		snap := eng.Snapshot()
		defer snap.Release()
		for _, e := range snap.Result().SortedEntries() {
			fmt.Printf("  region %v -> %d\n", e.Tuple, e.Payload)
		}
	}
	fmt.Println("revenue per region:")
	show()

	// A price change is a delete+insert pair on Items; the views absorb it.
	upd := fivm.NewRelation[int64](fivm.IntRing{}, catalog["Items"])
	upd.Merge(fivm.Ints(2, 25), -1)
	upd.Merge(fivm.Ints(2, 30), 1)
	if err := eng.ApplyDelta("Items", upd); err != nil {
		panic(err)
	}
	fmt.Println("after repricing item 2 to 30:")
	show()
}
