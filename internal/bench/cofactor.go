package bench

import (
	"fmt"
	"strings"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// The per-aggregate scalar competitors (DBT, 1-IVM) and the re-evaluation
// baselines, which the paper stops at a one-hour timeout, run the first
// scalarBatches batches of a round-robin stream of scalarBatchSize tuples: a
// fixed prefix that reaches every relation.
const scalarBatches, scalarBatchSize = 6, 50

// scalarStream is that prefix of the dataset's stream.
func scalarStream(ds *datasets.Dataset) []datasets.Batch {
	s := datasets.RoundRobinStream(ds, ds.Query.RelNames(), scalarBatchSize)
	return s[:min(len(s), scalarBatches)]
}

// liftOf lifts a variable's value through f, with the variable's index in
// vars: ring.LiftValue for the cofactor ring, ring.LiftDegMap for SQL-OPT.
func liftOf[P any](vars data.Schema, f func(j int, x float64) P) data.LiftFunc[P] {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) P { return f(idx[v], x.AsFloat()) }
}

// cofactorStrategies builds the Figure 7/12/13 competitors for a dataset. With
// auto-order, stats is analyze's collector, which every F-IVM engine clones
// and plans from, and order returns nil.
type cofactorStrategies struct {
	ds    *datasets.Dataset
	order func() *vorder.Order
	stats *data.Stats
}

func newCofactorStrategies(ds *datasets.Dataset, auto bool) cofactorStrategies {
	cs := cofactorStrategies{ds: ds, order: ds.NewOrder}
	if auto {
		cs.stats, cs.order = analyze(ds), func() *vorder.Order { return nil }
	}
	return cs
}

// scenario returns the paper's competitor of that name over the stream: F-IVM
// (one view tree, cofactor ring), SQL-OPT (degree-map payloads), DBT-RING
// (recursive hierarchies), or DBT and 1-IVM (per aggregate, over scalarStream
// instead). " ONE" updates only the largest relation, the others preloaded.
func (c cofactorStrategies) scenario(name string, stream []datasets.Batch) scenario {
	q, vars := c.ds.Query, c.ds.Query.Vars()
	var upd []string
	if strings.HasSuffix(name, " ONE") {
		upd = []string{c.ds.Largest}
	}
	switch strings.TrimSuffix(name, " ONE") {
	case "F-IVM":
		return strategy(name, c.ds, ring.Cofactor{}, upd, func(r ring.Ring[ring.Triple]) (Maintainer[ring.Triple], error) {
			return ivm.New(q, c.order(), r, liftOf(vars, ring.LiftValue),
				ivm.Options[ring.Triple]{Updatable: upd, ComposeChains: true, Stats: c.stats.Clone()})
		}, stream)
	case "SQL-OPT":
		return strategy(name, c.ds, ring.DegreeMap{}, upd, func(r ring.Ring[ring.DegMap]) (Maintainer[ring.DegMap], error) {
			return ivm.New(q, c.order(), r, liftOf(vars, ring.LiftDegMap),
				ivm.Options[ring.DegMap]{Updatable: upd, ComposeChains: true, Stats: c.stats.Clone()})
		}, stream)
	case "DBT-RING":
		return strategy(name, c.ds, ring.Cofactor{}, upd, func(r ring.Ring[ring.Triple]) (Maintainer[ring.Triple], error) {
			return ivm.NewRecursive(q, r, liftOf(vars, ring.LiftValue), upd)
		}, stream)
	case "DBT":
		return strategy(name, c.ds, ring.Float{}, upd, func(r ring.Ring[float64]) (Maintainer[float64], error) {
			return ivm.NewMultiRecursive(q, r, ivm.CofactorAggSpecs(vars), upd)
		}, scalarStream(c.ds))
	case "1-IVM":
		return strategy(name, c.ds, ring.Float{}, upd, func(r ring.Ring[float64]) (Maintainer[float64], error) {
			return ivm.NewMultiFirstOrder(q, c.order(), r, ivm.CofactorAggSpecs(vars))
		}, scalarStream(c.ds))
	}
	panic("bench: unknown strategy " + name)
}

// analyze is the ANALYZE pass the self-planning engines read: cardinalities,
// distinct sketches and delta rates matching the round-robin stream.
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

// Fig7 regenerates Figure 7 on "retailer" or "housing": the cofactor matrix
// under updates to all relations, and to the largest only (ONE). Expected
// shape: F-IVM stores the fewest views; on Retailer it touches fewer floats
// per tuple than DBT-RING, which pays for extra views, and orders of
// magnitude fewer than the scalar DBT and 1-IVM. SQL-OPT's sparse degree
// maps hold fewer floats, at a cost in hashing that a count does not see.
func Fig7(cfg Config, dataset string) *Table {
	var ds *datasets.Dataset
	if dataset == "housing" {
		ds = datasets.GenHousing(cfg.Housing)
	} else {
		ds = datasets.GenRetailer(cfg.Retailer)
	}
	title := cfg.title(fmt.Sprintf("Figure 7: cofactor maintenance, %s, batches of %d", ds.Name, cfg.BatchSize))
	return workTable(title, scalarNote(cfg.Scalar, "DBT and 1-IVM"), fig7Runs(cfg, ds))
}

// fig7Runs runs Figure 7's scenarios on the dataset.
func fig7Runs(cfg Config, ds *datasets.Dataset) []RunResult {
	cs := newCofactorStrategies(ds, cfg.AutoOrder)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize)
	scs := []scenario{cs.scenario("F-IVM", stream), cs.scenario("SQL-OPT", stream), cs.scenario("DBT-RING", stream)}
	if cfg.Scalar {
		scs = append(scs, cs.scenario("DBT", stream), cs.scenario("1-IVM", stream))
	}
	one := datasets.SingleRelationStream(ds, ds.Largest, cfg.BatchSize)
	for _, name := range []string{"F-IVM ONE", "SQL-OPT ONE", "DBT-RING ONE"} {
		scs = append(scs, cs.scenario(name, one))
	}
	return runScenarios(cfg.Group, scs...)
}

// scalarNote says which rows ran the scalar prefix.
func scalarNote(scalar bool, who string) string {
	if !scalar {
		return ""
	}
	return fmt.Sprintf("%s run the first %d round-robin batches of %d tuples", who, scalarBatches, scalarBatchSize)
}

// Fig12 regenerates Figure 12 as ring multiplications per tuple across
// cfg.BatchSizes, by F-IVM, SQL-OPT and DBT-RING (the paper's Twitter panel
// has 1-IVM, whose fixed prefix a batch sweep cannot vary). Expected shape:
// flat or falling, as tuples of a batch that meet at a view key merge before
// they propagate; the round-robin order moves it a little, as a batch finds
// its siblings fuller or emptier. Cache effects, which shape the paper's
// throughput curves, a count does not see.
func Fig12(cfg Config) *Table {
	t := &Table{Title: "Figure 12: cofactor maintenance, ring multiplications per tuple vs batch size",
		Header: []string{"dataset", "strategy"}}
	for _, bs := range cfg.BatchSizes {
		t.Header = append(t.Header, fmt.Sprintf("BS=%d", bs))
	}
	t.Header = append(t.Header, "elapsed (not bounded)")
	for _, ds := range []*datasets.Dataset{datasets.GenRetailer(cfg.Retailer), datasets.GenHousing(cfg.Housing), datasets.GenTwitter(cfg.Twitter)} {
		for _, name := range []string{"F-IVM", "SQL-OPT", "DBT-RING"} {
			row, total := []any{ds.Name, name}, time.Duration(0)
			for _, res := range fig12Runs(ds, name, cfg.BatchSizes) {
				mul, _ := res.PerTuple()
				row, total = append(row, oneDecimal(mul)), total+res.Elapsed
			}
			t.AddRow(append(row, total)...)
		}
	}
	return t
}

// fig12Runs runs one strategy once per batch size.
func fig12Runs(ds *datasets.Dataset, name string, batchSizes []int) []RunResult {
	cs := newCofactorStrategies(ds, false)
	var out []RunResult
	for _, bs := range batchSizes {
		out = append(out, runScenarios(1, cs.scenario(name, datasets.RoundRobinStream(ds, ds.Query.RelNames(), bs)))...)
	}
	return out
}

// Fig13 regenerates Figure 13, the cofactor matrix over the triangle query
// on the Twitter graph. Expected shape: F-IVM (one S⋈T view) and DBT-RING
// (all three pairwise joins) hold quadratic state, DBT-RING the most; F-IVM
// ONE (updates to R only) does the least work per tuple.
func Fig13(cfg Config) *Table {
	return workTable(cfg.title("Figure 13: cofactor over the triangle query (Twitter)"),
		scalarNote(cfg.Scalar, "DBT and 1-IVM"), fig13Runs(cfg, datasets.GenTwitter(cfg.Twitter)))
}

// fig13Runs runs Figure 13's scenarios on the dataset.
func fig13Runs(cfg Config, ds *datasets.Dataset) []RunResult {
	cs := newCofactorStrategies(ds, cfg.AutoOrder)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize)
	scs := []scenario{cs.scenario("F-IVM", stream), cs.scenario("DBT-RING", stream)}
	if cfg.Scalar {
		scs = append(scs, cs.scenario("DBT", stream), cs.scenario("1-IVM", stream))
	}
	scs = append(scs, cs.scenario("F-IVM ONE", datasets.SingleRelationStream(ds, ds.Largest, cfg.BatchSize)))
	return runScenarios(1, scs...)
}

// triangleRun is one run of the triangle count: the count, the size of the
// view at C, R's tuples, and the run.
type triangleRun struct {
	count int64
	vc, r int
	res   RunResult
}

// runTriangle counts the triangles of the Twitter graph over a round-robin
// stream, with or without the indicator projection ∃_{A,B} R.
func runTriangle(tw datasets.TwitterConfig, batch int, indicators bool) triangleRun {
	ds := datasets.GenTwitter(tw)
	var e *ivm.Engine[int64]
	sc := strategy("triangle", ds, ring.Int{}, nil, func(r ring.Ring[int64]) (Maintainer[int64], error) {
		var err error
		e, err = ivm.New(ds.Query, ds.NewOrder(), r, func(string, data.Value) int64 { return 1 }, ivm.Options[int64]{Indicators: indicators})
		return e, err
	}, datasets.RoundRobinStream(ds, ds.Query.RelNames(), batch))
	run := triangleRun{res: runScenarios(1, sc)[0], r: len(ds.Tuples["R"])}
	e.Tree().Walk(func(n *viewtree.Node) {
		if v := e.ViewOf(n); n.Var == "C" && v != nil {
			run.vc = v.Len()
		}
	})
	snap := e.Snapshot()
	run.count, _ = snap.Result().Get(data.Tuple{})
	snap.Release()
	return run
}

// TriangleIndicator demonstrates Appendix B: the indicator projection
// ∃_{A,B} R below the view at C bounds that view by |R| instead of the
// O(N²) pairs of S ⋈ T, while maintaining the same result.
func TriangleIndicator(cfg Config) *Table {
	t := &Table{Title: "Appendix B: triangle count with and without indicator projections",
		Header: []string{"variant", "triangles", "|V@C|", "|R|", "Mul/tuple", "state KiB", "elapsed (not bounded)"}}
	for i, name := range []string{"plain", "with ∃_{A,B}R"} {
		tr := runTriangle(cfg.Twitter, cfg.BatchSize, i == 1)
		mul, _ := tr.res.PerTuple()
		t.AddRow(name, tr.count, tr.vc, tr.r, oneDecimal(mul), oneDecimal(float64(tr.res.StateBytes)/1024), tr.res.Elapsed)
	}
	return t
}
