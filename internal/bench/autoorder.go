package bench

import (
	"fmt"

	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// AutoOrder runs the optimizer ablation: per dataset, F-IVM under the
// paper's handpicked order, under the cost-based optimizer's (Order: nil,
// dataset statistics), and under that plus cost-based materialization.
// Expected shape: the optimizer reproduces the handpicked orders (the same
// cost, views and work), and on the triangle the cost policy trades the
// quadratic pairwise view for inline probes, cutting state.
func AutoOrder(cfg Config) []*Table {
	var tables []*Table
	for _, ds := range []*datasets.Dataset{
		datasets.GenRetailer(cfg.Retailer),
		datasets.GenHousing(cfg.Housing),
		datasets.GenTwitter(cfg.Twitter),
	} {
		tables = append(tables, autoOrderOne(cfg, ds))
	}
	return tables
}

func autoOrderOne(cfg Config, ds *datasets.Dataset) *Table {
	st := analyze(ds)
	m := vorder.NewCostModel(ds.Query, st, nil)
	hand := ds.NewOrder()
	must(hand.Prepare(ds.Query))
	chosen, err := vorder.Choose(ds.Query, vorder.ChooseOptions{Model: m})
	must(err)
	must(chosen.Prepare(ds.Query))
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize)
	variant := func(name string, o *vorder.Order, costMat bool) scenario {
		return strategy(name, ds, ring.Cofactor{}, nil, func(r ring.Ring[ring.Triple]) (Maintainer[ring.Triple], error) {
			return ivm.New(ds.Query, o, r, liftOf(ds.Query.Vars(), ring.LiftValue),
				ivm.Options[ring.Triple]{ComposeChains: true, Stats: st.Clone(), CostMaterialize: costMat})
		}, stream)
	}
	results := runScenarios(1, variant("handpicked", hand, false), variant("optimizer", nil, false),
		variant("optimizer+costmat", nil, true))
	return workTable("Optimizer ablation: handpicked vs chosen order, "+ds.Name, fmt.Sprintf(
		"handpicked %s (est cost %.2f)\nchosen     %s (est cost %.2f)",
		hand, m.Cost(hand).Total(), chosen, m.Cost(chosen).Total()), results)
}

// ExplainReport renders Explain for the F-IVM cofactor engine over a
// dataset's contents, under the handpicked order or, with auto, the
// optimizer's: order, width, estimated cost, per-view estimated vs actual
// sizes and materialization decisions.
func ExplainReport(ds *datasets.Dataset, auto bool) string {
	o, variant := ds.NewOrder(), "handpicked"
	if auto {
		o, variant = nil, "optimizer-chosen"
	}
	eng, err := ivm.New(ds.Query, o, ring.Cofactor{}, liftOf(ds.Query.Vars(), ring.LiftValue),
		ivm.Options[ring.Triple]{ComposeChains: true, Stats: analyze(ds)})
	must(err)
	toDelta := deltaOf[ring.Triple](ds.Query, ring.Cofactor{})
	for rel, ts := range ds.Tuples {
		must(eng.Load(rel, toDelta(datasets.Batch{Rel: rel, Tuples: ts})))
	}
	must(eng.Init())
	return fmt.Sprintf("== Explain: %s (%s order) ==\n%s", ds.Name, variant, eng.Explain())
}
