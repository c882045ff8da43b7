package bench

import (
	"fmt"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
)

// MultiViewConfig configures the shared-ingest experiment: N concurrent
// views over one Retailer update stream, maintained by one db.DB (ingest
// the batch once, fan out) versus N separate engines (each ingesting the
// raw stream itself).
type MultiViewConfig struct {
	// Views is how many of the workload's view definitions to register (at
	// most 8; the list cycles with fresh names beyond that).
	Views     int
	BatchSize int
	// Group applies this many stream batches per Apply/ApplyDeltas call.
	Group int
	// Workers > 1 uses the sharded parallel engine per view on both sides.
	Workers  int
	Retailer datasets.RetailerConfig
	// Reps repeats each side and keeps its best run (default 3): both sides
	// rebuild from scratch per rep, so allocator and GC noise — which on a
	// shared box dwarfs the effect under test — is largely filtered out.
	Reps int
}

// DefaultMultiView is the laptop-scale default.
func DefaultMultiView() MultiViewConfig {
	return MultiViewConfig{Views: 4, BatchSize: 1000, Group: 1, Reps: 5, Retailer: datasets.DefaultRetailer()}
}

// viewSpec is one dashboard-style view definition over the Retailer join.
type viewSpec struct {
	name string
	free []string
	sum  string // "" = COUNT, else SUM(sum)
}

// multiViewSpecs is the Retailer dashboard workload: distinct group-bys and
// aggregates over the same five-relation join, so every view shares the one
// base stream but maintains its own view tree.
var multiViewSpecs = []viewSpec{
	{name: "count_by_locn", free: []string{"locn"}},
	{name: "inv_by_locn_date", free: []string{"locn", "dateid"}, sum: "inventoryunits"},
	{name: "count_by_zip", free: []string{"zip"}},
	{name: "prize_by_category", free: []string{"category"}, sum: "prize"},
	{name: "count_by_ksn", free: []string{"ksn"}},
	{name: "inv_by_category", free: []string{"category"}, sum: "inventoryunits"},
	{name: "count_by_date", free: []string{"dateid"}},
	{name: "maxtemp_by_locn", free: []string{"locn"}, sum: "maxtemp"},
}

func (s viewSpec) query(name string) query.Query {
	return datasets.RetailerQuery(s.free...).Rename(name)
}

func (s viewSpec) lift() data.LiftFunc[float64] {
	if s.sum == "" {
		return oneFloatLift
	}
	return sumLift(s.sum)
}

// specsFor returns n view definitions, cycling the workload list with
// numbered names past its length.
func specsFor(n int) []viewSpec {
	out := make([]viewSpec, n)
	for i := 0; i < n; i++ {
		s := multiViewSpecs[i%len(multiViewSpecs)]
		if i >= len(multiViewSpecs) {
			s.name = fmt.Sprintf("%s#%d", s.name, i/len(multiViewSpecs)+1)
		}
		out[i] = s
	}
	return out
}

// MultiView runs the experiment and returns the per-view and aggregate
// tables. Both sides maintain identical view definitions with per-batch
// snapshot publication; they differ in the architecture around the engines:
// the DB ingests the stream once (one statistics pass, one log append, one
// ring conversion shared across same-ring views, per-view engines relieved
// of statistics collection via NoLiveStats), while each separate engine
// ingests the raw stream and keeps its own statistics, as self-contained
// pipelines must.
func MultiView(cfg MultiViewConfig) []*Table {
	o := multiViewRun(cfg)
	cfg, specs, total := o.cfg, o.specs, o.total
	shared, separate := o.shared, o.separate
	sharedPer, sepPer := o.sharedPer, o.sepPer
	sharedErr, sepErr := o.sharedErr, o.sepErr

	per := &Table{
		Title:  fmt.Sprintf("multiview per-view maintenance (%d views, batch %d, workers %d)", cfg.Views, cfg.BatchSize, max(1, cfg.Workers)),
		Note:   "per-view maintain time over the whole stream; shared = one DB fan-out (stats centralized, conversions shared), separate = one self-contained engine per view (own ingest + own stats)",
		Header: []string{"view", "shared", "separate", "shared tput", "separate tput"},
	}
	for i, s := range specs {
		if sharedErr != nil || sepErr != nil {
			per.AddRow(s.name, "-", "-", "-", "-")
			continue
		}
		per.AddRow(s.name,
			fmtDur(sharedPer[i].Seconds()), fmtDur(sepPer[i].Seconds()),
			fmtTput(float64(total)/sharedPer[i].Seconds()), fmtTput(float64(total)/sepPer[i].Seconds()))
	}

	agg := &Table{
		Title:  "multiview aggregate ingest",
		Note:   fmt.Sprintf("%d stream tuples applied to %d views; throughput = stream tuples / wall time (view-maintenance throughput = that × views)", total, cfg.Views),
		Header: []string{"mode", "elapsed", "tuples/s", "view-tuples/s", "status"},
	}
	addAgg := func(mode string, el time.Duration, err error) {
		status := "ok"
		if err != nil {
			status = "error: " + err.Error()
		}
		if el <= 0 {
			agg.AddRow(mode, "-", "-", "-", status)
			return
		}
		tput := float64(total) / el.Seconds()
		agg.AddRow(mode, fmtDur(el.Seconds()), fmtTput(tput), fmtTput(tput*float64(cfg.Views)), status)
	}
	addAgg("shared DB", shared, sharedErr)
	addAgg(fmt.Sprintf("%d separate engines", cfg.Views), separate, sepErr)
	if sepErr == nil && sharedErr == nil && shared > 0 {
		agg.Note += fmt.Sprintf("; shared-ingest speedup %.2fx", separate.Seconds()/shared.Seconds())
	}
	return []*Table{per, agg}
}

// multiViewOutcome is the raw result of one multi-view experiment: best-rep
// wall time and per-view maintain times for both architectures, plus the
// normalized config the run actually used.
type multiViewOutcome struct {
	cfg               MultiViewConfig
	specs             []viewSpec
	total             int // stream tuples applied per side
	shared, separate  time.Duration
	sharedPer, sepPer []time.Duration
	sharedErr, sepErr error
}

// multiViewRun executes the experiment and returns the raw outcome, shared
// by the table renderer and the machine-readable suite runner.
func multiViewRun(cfg MultiViewConfig) multiViewOutcome {
	if cfg.Views <= 0 {
		cfg.Views = 4
	}
	if cfg.Group <= 0 {
		cfg.Group = 1
	}
	ds := datasets.GenRetailer(cfg.Retailer)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize)
	o := multiViewOutcome{cfg: cfg, specs: specsFor(cfg.Views)}
	for _, b := range stream {
		o.total += len(b.Tuples)
	}

	reps := cfg.Reps
	if reps <= 0 {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		el, per, err := runMultiViewShared(ds, o.specs, stream, cfg)
		if err != nil {
			o.sharedErr = err
			break
		}
		if r == 0 || el < o.shared {
			o.shared, o.sharedPer = el, per
		}
		el, per, err = runMultiViewSeparate(ds, o.specs, stream, cfg)
		if err != nil {
			o.sepErr = err
			break
		}
		if r == 0 || el < o.separate {
			o.separate, o.sepPer = el, per
		}
	}
	if o.sharedErr != nil || o.sepErr != nil {
		if o.sharedPer == nil {
			o.sharedPer = make([]time.Duration, len(o.specs))
		}
		if o.sepPer == nil {
			o.sepPer = make([]time.Duration, len(o.specs))
		}
	}
	return o
}

// runMultiViewShared drives one DB with every view registered.
func runMultiViewShared(ds *datasets.Dataset, specs []viewSpec, stream []datasets.Batch, cfg MultiViewConfig) (time.Duration, []time.Duration, error) {
	per := make([]time.Duration, len(specs))
	cat := db.Catalog{}
	for _, rd := range ds.Query.Rels {
		cat[rd.Name] = rd.Schema
	}
	// The DB keeps its (single, shared) statistics collector on — that one
	// pass replaces the N per-engine collectors of the separate baseline.
	d, err := db.Open(cat, db.Options{})
	if err != nil {
		return 0, per, err
	}
	defer d.Close()
	for _, s := range specs {
		if _, err := db.CreateView[float64](d, s.name, s.query(s.name), ring.Float{}, s.lift(),
			db.ViewOptions{Workers: cfg.Workers, ComposeChains: true}); err != nil {
			return 0, per, err
		}
	}

	ups := make([]db.Update, 0, cfg.Group)
	start := time.Now()
	for at := 0; at < len(stream); at += cfg.Group {
		ups = ups[:0]
		for _, b := range stream[at:min(at+cfg.Group, len(stream))] {
			ups = append(ups, db.Update{Rel: b.Rel, Tuples: b.Tuples, Mult: 1})
		}
		if err := d.Apply(ups); err != nil {
			return time.Since(start), per, err
		}
	}
	el := time.Since(start)
	for i, s := range specs {
		per[i] = d.ViewStatsOf(s.name).Maintain
	}
	return el, per, nil
}

// runMultiViewSeparate drives one independent engine per view; each engine
// ingests the raw stream itself (the pre-DB architecture).
func runMultiViewSeparate(ds *datasets.Dataset, specs []viewSpec, stream []datasets.Batch, cfg MultiViewConfig) (time.Duration, []time.Duration, error) {
	per := make([]time.Duration, len(specs))
	engines := make([]ivm.Maintainer[float64], len(specs))
	toDeltas := make([]func(b datasets.Batch) *data.Relation[float64], len(specs))
	for i, s := range specs {
		q := s.query(s.name)
		lift := s.lift()
		factory := func() (ivm.Maintainer[float64], error) {
			// The baseline is the pre-DB architecture: N self-contained
			// pipelines. A self-planning engine with no central collector to
			// lean on owns and maintains its own statistics (the default for
			// a nil order) — centralizing that observation, once for all
			// views, is one of the shared design's wins and is charged here.
			return ivm.New[float64](q, nil, ring.Float{}, lift, ivm.Options[float64]{ComposeChains: true})
		}
		m, err := parallelize[float64](q, ring.Float{}, cfg.Workers, factory)
		if err != nil {
			return 0, per, err
		}
		defer closeMaintainer(m)
		if err := m.Init(); err != nil {
			return 0, per, err
		}
		m.Snapshot().Release() // publication on, as the DB side has it
		engines[i] = m
		toDeltas[i] = floatDelta(q)
	}

	grouped := make(map[string][]data.Tuple)
	var order []string
	scratch := make([]ivm.NamedDelta[float64], 0, 8)
	start := time.Now()
	for at := 0; at < len(stream); at += cfg.Group {
		g := stream[at:min(at+cfg.Group, len(stream))]
		order = order[:0]
		for _, b := range g {
			if len(grouped[b.Rel]) == 0 && len(b.Tuples) > 0 {
				order = append(order, b.Rel)
			}
			grouped[b.Rel] = append(grouped[b.Rel], b.Tuples...)
		}
		for i, m := range engines {
			es := time.Now()
			scratch = scratch[:0]
			for _, rel := range order {
				scratch = append(scratch, ivm.NamedDelta[float64]{
					Rel:   rel,
					Delta: toDeltas[i](datasets.Batch{Rel: rel, Tuples: grouped[rel]}),
				})
			}
			if err := m.ApplyDeltas(scratch); err != nil {
				return time.Since(start), per, err
			}
			per[i] += time.Since(es)
		}
		for _, rel := range order {
			grouped[rel] = grouped[rel][:0]
		}
	}
	return time.Since(start), per, nil
}
