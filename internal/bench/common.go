package bench

import (
	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// --- delta builders ----------------------------------------------------------

// intDelta turns a batch into a multiplicity delta.
func intDelta(q query.Query) func(b datasets.Batch) *data.Relation[int64] {
	return func(b datasets.Batch) *data.Relation[int64] {
		rd, _ := q.Rel(b.Rel)
		d := data.NewRelation[int64](ring.Int{}, rd.Schema)
		d.Reserve(len(b.Tuples))
		for _, t := range b.Tuples {
			d.Merge(t, 1)
		}
		return d
	}
}

// floatDelta turns a batch into a float multiplicity delta.
func floatDelta(q query.Query) func(b datasets.Batch) *data.Relation[float64] {
	return func(b datasets.Batch) *data.Relation[float64] {
		rd, _ := q.Rel(b.Rel)
		d := data.NewRelation[float64](ring.Float{}, rd.Schema)
		d.Reserve(len(b.Tuples))
		for _, t := range b.Tuples {
			d.Merge(t, 1)
		}
		return d
	}
}

// tripleDelta turns a batch into a cofactor-ring delta (identity payloads).
func tripleDelta(q query.Query) func(b datasets.Batch) *data.Relation[ring.Triple] {
	cf := ring.Cofactor{}
	return func(b datasets.Batch) *data.Relation[ring.Triple] {
		rd, _ := q.Rel(b.Rel)
		d := data.NewRelation[ring.Triple](cf, rd.Schema)
		d.Reserve(len(b.Tuples))
		one := cf.One()
		for _, t := range b.Tuples {
			d.Merge(t, one)
		}
		return d
	}
}

// degMapDelta turns a batch into a degree-map-ring delta.
func degMapDelta(q query.Query) func(b datasets.Batch) *data.Relation[ring.DegMap] {
	dm := ring.DegreeMap{}
	return func(b datasets.Batch) *data.Relation[ring.DegMap] {
		rd, _ := q.Rel(b.Rel)
		d := data.NewRelation[ring.DegMap](dm, rd.Schema)
		d.Reserve(len(b.Tuples))
		for _, t := range b.Tuples {
			d.Merge(t, dm.One())
		}
		return d
	}
}

// --- lifting functions ---------------------------------------------------------

// tripleLift maps every variable value to its regression lifting.
func tripleLift(vars data.Schema) data.LiftFunc[ring.Triple] {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) ring.Triple {
		return ring.LiftValue(idx[v], x.AsFloat())
	}
}

// degMapLift is the SQL-OPT (degree-indexed) lifting.
func degMapLift(vars data.Schema) data.LiftFunc[ring.DegMap] {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) ring.DegMap {
		return ring.LiftDegMap(idx[v], x.AsFloat())
	}
}

// sumLift sums the given variable (SUM(target) in the Float ring).
func sumLift(target string) data.LiftFunc[float64] {
	return func(v string, x data.Value) float64 {
		if v == target {
			return x.AsFloat()
		}
		return 1
	}
}

// --- cofactor strategy constructors -------------------------------------------

// cofactorStrategies builds the Figure 7/12/13 competitor set for a dataset.
// Which of them are included is up to the caller; the scalar per-aggregate
// strategies (DBT, 1-IVM) are orders of magnitude slower and are usually run
// on a stream prefix with a timeout.
type cofactorStrategies struct {
	q    query.Query
	vars data.Schema
	// stats, when set, is cloned into every engine built with a nil order so
	// it can self-plan from dataset statistics (the -auto-order path). Each
	// engine gets its own clone: collectors are single-owner.
	stats *data.Stats
}

func newCofactorStrategies(q query.Query) cofactorStrategies {
	return cofactorStrategies{q: q, vars: q.Vars()}
}

// FIVM builds the F-IVM engine with the cofactor (degree-m matrix) ring.
func (c cofactorStrategies) FIVM(o *vorder.Order, updatable []string) (ivm.Maintainer[ring.Triple], error) {
	return ivm.New[ring.Triple](c.q, o, ring.Cofactor{}, tripleLift(c.vars), ivm.Options[ring.Triple]{
		Updatable:     updatable,
		ComposeChains: true,
		Stats:         c.stats.Clone(),
	})
}

// SQLOPT builds the same view tree with the degree-map encoding.
func (c cofactorStrategies) SQLOPT(o *vorder.Order, updatable []string) (ivm.Maintainer[ring.DegMap], error) {
	return ivm.New[ring.DegMap](c.q, o, ring.DegreeMap{}, degMapLift(c.vars), ivm.Options[ring.DegMap]{
		Updatable:     updatable,
		ComposeChains: true,
		Stats:         c.stats.Clone(),
	})
}

// DBTRing builds DBToaster-style recursive IVM with the cofactor ring.
func (c cofactorStrategies) DBTRing(updatable []string) (ivm.Maintainer[ring.Triple], error) {
	return ivm.NewRecursive[ring.Triple](c.q, ring.Cofactor{}, tripleLift(c.vars), updatable)
}

// DBTScalar builds recursive IVM with one scalar hierarchy per aggregate.
func (c cofactorStrategies) DBTScalar(updatable []string) (*ivm.MultiRecursive, error) {
	return ivm.NewMultiRecursive(c.q, ivm.CofactorAggSpecs(c.vars), updatable)
}

// FirstOrderScalar builds first-order IVM with one delta query per aggregate.
func (c cofactorStrategies) FirstOrderScalar(o *vorder.Order) (*ivm.Baseline[float64], error) {
	return ivm.NewMultiFirstOrder(c.q, o, ivm.CofactorAggSpecs(c.vars))
}

// analyze seeds a statistics collector from a dataset's generated contents
// (cardinalities, per-column distinct sketches) plus uniform delta-rate
// observations matching the round-robin stream synthesis — the ANALYZE pass
// the self-planning engines consume.
func analyze(ds *datasets.Dataset) *data.Stats {
	st := data.NewStats()
	for rel, ts := range ds.Tuples {
		rd, _ := ds.Query.Rel(rel)
		rs := st.Rel(rel, rd.Schema)
		for _, t := range ts {
			rs.ObserveInsert(t)
		}
		rs.DeltaTuples = int64(len(ts))
	}
	return st
}

// scenario is one strategy's run in a figure: open builds the strategy and
// brings it to the state its stream starts from, and returns what stops it
// again (a parallel maintainer's worker pool; a no-op otherwise).
type scenario struct {
	name   string
	open   func() (l Loader, stop func(), err error)
	stream []datasets.Batch
}

// runScenarios opens, streams and stops each scenario in turn, one RunResult
// per scenario in table order.
func runScenarios(scs []scenario, opts RunOptions) []RunResult {
	results := make([]RunResult, 0, len(scs))
	for _, sc := range scs {
		l, stop, err := sc.open()
		must(err)
		results = append(results, RunStream(sc.name, l, sc.stream, opts))
		stop()
	}
	return results
}

// strategy is the scenario of a maintainer over payload P. mk builds the
// maintainer; workers > 1 shards it (ivm.NewParallel calls mk once per shard,
// partitioning the database by the best-covered join variable). Every
// relation of ds the stream does not deliver is loaded before Init: none for
// a full stream, all but one in the ONE scenarios. routerStats, when set, is
// fed by a parallel maintainer's routing path, so the ANALYZE collector's
// delta rates stay current across the run.
func strategy[P any](name string, ds *datasets.Dataset, r ring.Ring[P], workers int, routerStats *data.Stats,
	mk func() (ivm.Maintainer[P], error), toDelta func(b datasets.Batch) *data.Relation[P],
	stream []datasets.Batch) scenario {
	streamed := make(map[string]bool)
	for _, b := range stream {
		streamed[b.Rel] = true
	}
	open := func() (Loader, func(), error) {
		var m ivm.Maintainer[P]
		stop := func() {}
		if workers <= 1 {
			var err error
			if m, err = mk(); err != nil {
				return nil, nil, err
			}
		} else {
			p, err := ivm.NewParallel[P](ds.Query, r, workers, mk)
			if err != nil {
				return nil, nil, err
			}
			if routerStats != nil {
				p.CollectStats(routerStats)
			}
			m, stop = p, func() { p.Close() }
		}
		return Adapt(m, toDelta), stop, preload(m, ds, toDelta, streamed)
	}
	return scenario{name: name, open: open, stream: stream}
}

// preload loads every relation except those in skip into the maintainer and
// runs Init — the ONE-scenario setup where only the stream relation changes.
func preload[P any](m ivm.Maintainer[P], ds *datasets.Dataset, toDelta func(b datasets.Batch) *data.Relation[P], skip map[string]bool) error {
	for rel, tuples := range ds.Tuples {
		if skip[rel] {
			continue
		}
		if err := m.Load(rel, toDelta(datasets.Batch{Rel: rel, Tuples: tuples})); err != nil {
			return err
		}
	}
	return m.Init()
}
