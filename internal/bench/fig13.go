package bench

import (
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// Fig13Config scales the triangle-query cofactor experiment (Figure 13).
type Fig13Config struct {
	BatchSize int
	Timeout   time.Duration
	// Workers is the shard/worker count for parallel maintenance (default
	// 1, sequential); the triangle shards on one edge variable with the
	// third relation broadcast.
	Workers int
	Twitter datasets.TwitterConfig
	// AutoOrder replaces the handpicked A-B-C order with an
	// optimizer-chosen one (engines self-plan from dataset statistics).
	AutoOrder bool
	// IncludeScalar adds the per-aggregate DBT and 1-IVM competitors
	// (very slow by design — that is the result).
	IncludeScalar bool
}

// DefaultFig13 is a laptop-scale configuration.
func DefaultFig13() Fig13Config {
	return Fig13Config{
		BatchSize:     1000,
		Timeout:       10 * time.Second,
		Twitter:       datasets.DefaultTwitter(),
		IncludeScalar: true,
	}
}

// Fig13 regenerates Figure 13: cofactor maintenance over the triangle query
// on the Twitter graph. Expected shape: throughput of the strategies that
// materialize quadratic-size pairwise joins (F-IVM with one S⋈T view,
// DBT-RING with all three) declines sharply as the stream progresses; the
// scalar DBT is worst; 1-IVM declines linearly; F-IVM-ONE (updates to R
// only) is orders of magnitude faster at the cost of the stored join view.
func Fig13(cfg Fig13Config) []*Table {
	ds := datasets.GenTwitter(cfg.Twitter)
	cs := newCofactorStrategies(ds.Query)
	ord := ds.NewOrder
	if cfg.AutoOrder {
		cs.stats = analyze(ds)
		ord = func() *vorder.Order { return nil }
	}
	q, w := ds.Query, cfg.Workers
	triple, float := tripleDelta(q), floatDelta(q)
	stream := datasets.RoundRobinStream(ds, q.RelNames(), cfg.BatchSize)
	oneStream := datasets.SingleRelationStream(ds, "R", cfg.BatchSize)

	// Only the two cofactor-ring strategies shard; the scalar competitors and
	// the ONE variant run sequentially whatever cfg.Workers says.
	scs := []scenario{
		strategy("F-IVM", ds, ring.Cofactor{}, w,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.FIVM(ord(), nil) }, triple, stream),
		strategy("DBT-RING", ds, ring.Cofactor{}, w,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.DBTRing(nil) }, triple, stream),
	}
	if cfg.IncludeScalar {
		scs = append(scs,
			strategy("DBT", ds, ring.Float{}, 1,
				func() (ivm.Maintainer[float64], error) { return cs.DBTScalar(nil) }, float, stream),
			strategy("1-IVM", ds, ring.Float{}, 1,
				func() (ivm.Maintainer[float64], error) { return cs.FirstOrderScalar(ord()) }, float, stream))
	}
	scs = append(scs,
		strategy("F-IVM ONE", ds, ring.Cofactor{}, 1,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.FIVM(ord(), []string{"R"}) }, triple, oneStream))
	results := runScenarios(scs, RunOptions{Timeout: cfg.Timeout})

	title := "Figure 13: cofactor over the triangle query (Twitter)"
	if cfg.AutoOrder {
		title += ", auto-order"
	}
	return fig7Tables(workersTitle(title, w), results)
}

// TriangleIndicator demonstrates Appendix B: the indicator projection
// ∃_{A,B} R below the view at C bounds that view by |R| instead of the
// O(N²) pairs of S ⋈ T, while maintaining the same result.
func TriangleIndicator(cfg Fig13Config) *Table {
	ds := datasets.GenTwitter(cfg.Twitter)
	countLift := func(string, data.Value) int64 { return 1 }

	build := func(ind bool) (*ivm.Engine[int64], RunResult) {
		e, err := ivm.New[int64](ds.Query, ds.NewOrder(), ring.Int{}, countLift,
			ivm.Options[int64]{Indicators: ind})
		must(err)
		must(e.Init())
		stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize)
		res := RunStream("triangle", Adapt[int64](e, intDelta(ds.Query)), stream, RunOptions{Timeout: cfg.Timeout})
		return e, res
	}

	vcSize := func(e *ivm.Engine[int64]) int {
		size := -1
		e.Tree().Walk(func(n *viewtree.Node) {
			if n.Var == "C" {
				if v := e.ViewOf(n); v != nil {
					size = v.Len()
				}
			}
		})
		return size
	}

	t := &Table{
		Title:  "Appendix B: triangle count with and without indicator projections",
		Header: []string{"variant", "triangles", "|V@C|", "throughput", "peak mem"},
	}
	for _, ind := range []bool{false, true} {
		e, res := build(ind)
		snap := e.Snapshot()
		count, _ := snap.Result().Get(data.Tuple{})
		snap.Release()
		name := "plain"
		if ind {
			name = "with ∃_{A,B}R"
		}
		t.AddRow(name, count, vcSize(e), fmtTputRes(res), fmtMem(res.PeakMem))
	}
	return t
}
