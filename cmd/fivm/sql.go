package main

import (
	"fmt"
	"time"

	"fivm/internal/datasets"
	"fivm/internal/db"
)

func pickDataset(name string, retailer datasets.RetailerConfig, housing datasets.HousingConfig, twitter datasets.TwitterConfig) *datasets.Dataset {
	switch name {
	case "housing":
		return datasets.GenHousing(housing)
	case "twitter":
		return datasets.GenTwitter(twitter)
	default: // "retailer": main accepts no other name
		return datasets.GenRetailer(retailer)
	}
}

// runSQL registers an ad-hoc query as a view on a DB over a dataset's
// catalog, maintains it over the dataset's update stream (group stream
// batches per Apply), and prints the result with throughput statistics.
func runSQL(ds *datasets.Dataset, sql string, batchSize, group int) error {
	cat := db.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	d, err := db.Open(cat, db.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	v, err := db.CreateViewSQL(d, "q", sql, db.ViewOptions{ComposeChains: true})
	if err != nil {
		return err
	}
	order := v.Maintainer().Order() // chosen by the optimizer
	fmt.Printf("variable order: %v (width %d)\n", order, order.Width(v.Query()))

	if group <= 0 {
		group = 1
	}
	stream := datasets.RoundRobinStream(ds, v.Query().RelNames(), batchSize)
	tuples := 0
	start := time.Now()
	batch := make([]db.Update, 0, group)
	for at := 0; at < len(stream); at += group {
		batch = batch[:0]
		for _, b := range stream[at:min(at+group, len(stream))] {
			batch = append(batch, db.Insert(b.Rel, b.Tuples...))
			tuples += len(b.Tuples)
		}
		if err := d.Apply(batch); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("maintained %d tuples in %v (%.0f tuples/sec) across %d views\n",
		tuples, elapsed.Round(time.Microsecond), float64(tuples)/elapsed.Seconds(), d.ViewStatsOf("q").ViewCount)
	snap := v.Snapshot()
	defer snap.Release()
	res := snap.Result()
	fmt.Printf("result (%d groups):\n", res.Len())
	shown := 0
	for _, e := range res.SortedEntries() {
		fmt.Printf("  %v -> %g\n", e.Tuple, e.Payload)
		if shown++; shown >= 20 {
			fmt.Printf("  ... (%d more)\n", res.Len()-shown)
			break
		}
	}
	return nil
}
