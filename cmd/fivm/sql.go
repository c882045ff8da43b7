package main

import (
	"fmt"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/sqlparse"
	"fivm/internal/vorder"
)

func pickDataset(name string, retailer datasets.RetailerConfig, housing datasets.HousingConfig, twitter datasets.TwitterConfig) *datasets.Dataset {
	switch name {
	case "housing":
		return datasets.GenHousing(housing)
	case "twitter":
		return datasets.GenTwitter(twitter)
	default:
		return datasets.GenRetailer(retailer)
	}
}

// runSQL parses an ad-hoc query against a dataset's catalog, maintains it
// over the dataset's update stream with F-IVM (driving the batched
// ApplyDeltas API group-wise), and prints the result with throughput
// statistics.
func runSQL(ds *datasets.Dataset, sql string, batchSize, group int) error {
	cat := sqlparse.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	parsed, err := sqlparse.Parse(sql, cat)
	if err != nil {
		return err
	}
	order, err := vorder.Build(parsed.Query)
	if err != nil {
		return err
	}
	fmt.Printf("variable order: %v (width %d)\n", order, order.Width(parsed.Query))

	eng, err := ivm.New[float64](parsed.Query, order, ring.Float{}, parsed.LiftFloat(),
		ivm.Options[float64]{ComposeChains: true})
	if err != nil {
		return err
	}
	if err := eng.Init(); err != nil {
		return err
	}

	if group <= 0 {
		group = 1
	}
	stream := datasets.RoundRobinStream(ds, parsed.Query.RelNames(), batchSize)
	tuples := 0
	start := time.Now()
	batch := make([]ivm.NamedDelta[float64], 0, group)
	for at := 0; at < len(stream); at += group {
		batch = batch[:0]
		for _, b := range stream[at:min(at+group, len(stream))] {
			rd, _ := parsed.Query.Rel(b.Rel)
			d := data.NewRelation[float64](ring.Float{}, rd.Schema)
			d.Reserve(len(b.Tuples))
			for _, t := range b.Tuples {
				d.Merge(t, 1)
			}
			batch = append(batch, ivm.NamedDelta[float64]{Rel: b.Rel, Delta: d})
			tuples += len(b.Tuples)
		}
		if err := eng.ApplyDeltas(batch); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("maintained %d tuples in %v (%.0f tuples/sec) across %d views\n",
		tuples, elapsed.Round(time.Microsecond), float64(tuples)/elapsed.Seconds(), eng.ViewCount())
	snap := eng.Snapshot()
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
