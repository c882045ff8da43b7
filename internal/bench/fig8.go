package bench

import (
	"fmt"
	"slices"
	"time"

	"fivm/internal/datasets"
	"fivm/internal/factorized"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// fig8Modes are Figure 8's representations, in its legend's order.
var fig8Modes = []factorized.Mode{factorized.FactPayloads, factorized.ListPayloads, factorized.ListKeys}

// fig8Run maintains the dataset's natural join, every variable free, in one
// representation over the stream, the relations outside updatable preloaded
// (nil: none), and returns the result (SizeValues: its size) and its time.
func fig8Run(mode factorized.Mode, ds *datasets.Dataset, updatable []string, stream []datasets.Batch) (*factorized.Result, time.Duration) {
	jq := query.MustNew(ds.Query.Name+"_join", ds.Query.Vars(), ds.Query.Rels...)
	r, err := factorized.New(mode, jq, ds.NewOrder(), updatable)
	must(err)
	toDelta := deltaOf[int64](jq, ring.Int{})
	for rel, tuples := range ds.Tuples {
		if updatable != nil && !slices.Contains(updatable, rel) {
			must(r.Load(rel, toDelta(datasets.Batch{Rel: rel, Tuples: tuples})))
		}
	}
	must(r.Init())
	return r, elapsed(func() {
		for _, b := range stream {
			must(r.ApplyDelta(b.Rel, toDelta(b)))
		}
	})
}

// Fig8Retailer regenerates Figure 8 (left): the Retailer join under updates
// to its largest relation, in the three representations. Expected shape: the
// factorized payloads hold it in far fewer values and bytes than a listing.
func Fig8Retailer(cfg Config) *Table {
	ds := datasets.GenRetailer(cfg.Retailer)
	t := &Table{Title: fmt.Sprintf("Figure 8 (left): %s natural join, updates to %s, batches of %d", ds.Name, ds.Largest, cfg.BatchSize),
		Header: []string{"representation", "views", "result size (values)", "state KiB", "elapsed (not bounded)"}}
	for _, mode := range fig8Modes {
		r, el := fig8Run(mode, ds, []string{ds.Largest}, datasets.SingleRelationStream(ds, ds.Largest, cfg.BatchSize))
		t.AddRow(mode.String(), r.ViewCount(), r.SizeValues(), oneDecimal(float64(r.MemoryBytes())/1024), el)
	}
	return t
}

// Fig8Housing regenerates Figure 8 (right): the Housing join across
// cfg.Scales. Expected shape, as datasets.HousingConfig documents: the
// listings grow cubically with the scale, the factorized payloads linearly.
func Fig8Housing(cfg Config) *Table {
	t := &Table{Title: "Figure 8 (right): Housing natural join across scale factors, result size in values",
		Header: []string{"scale", "Fact payloads", "List payloads", "List keys", "elapsed (not bounded)"}}
	for _, scale := range cfg.Scales {
		h := cfg.Housing
		h.Scale = scale
		ds := datasets.GenHousing(h)
		row, total := []any{scale}, time.Duration(0)
		for _, mode := range fig8Modes {
			r, el := fig8Run(mode, ds, nil, datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize))
			row, total = append(row, r.SizeValues()), total+el
		}
		t.AddRow(append(row, total)...)
	}
	return t
}
