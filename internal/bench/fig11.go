package bench

import (
	"fmt"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
)

// Fig11 regenerates the Appendix C table: a SUM over the natural join under
// updates to all relations, by F-IVM, DBT, 1-IVM, F-RE (factorized
// re-evaluation) and DBT-RE (unfactorized). Expected shape: F-IVM does the
// least work per tuple, tied with DBT on Housing's star join; a
// re-evaluation's work per tuple grows with the database, which the scalar
// prefix keeps small.
func Fig11(cfg Config) []*Table {
	var tables []*Table
	for _, ds := range []*datasets.Dataset{datasets.GenRetailer(cfg.Retailer), datasets.GenHousing(cfg.Housing)} {
		sumVar := map[string]string{"retailer": "inventoryunits", "housing": "postcode"}[ds.Name]
		lift := func(v string, x data.Value) float64 {
			if v == sumVar {
				return x.AsFloat()
			}
			return 1
		}
		q, o := ds.Query, ds.NewOrder
		stream := datasets.RoundRobinStream(ds, q.RelNames(), cfg.BatchSize)
		sum := func(name string, stream []datasets.Batch, mk func(r ring.Ring[float64]) (Maintainer[float64], error)) scenario {
			return strategy(name, ds, ring.Float{}, nil, mk, stream)
		}
		results := runScenarios(1,
			sum("F-IVM", stream, func(r ring.Ring[float64]) (Maintainer[float64], error) {
				return ivm.New(q, o(), r, lift, ivm.Options[float64]{ComposeChains: true})
			}),
			sum("DBT", stream, func(r ring.Ring[float64]) (Maintainer[float64], error) {
				return ivm.NewRecursive(q, r, lift, nil)
			}),
			sum("1-IVM", stream, func(r ring.Ring[float64]) (Maintainer[float64], error) {
				return ivm.NewFirstOrder(q, o(), r, lift)
			}),
			sum("F-RE", scalarStream(ds), func(r ring.Ring[float64]) (Maintainer[float64], error) {
				return ivm.NewReEval(q, o(), r, lift)
			}),
			sum("DBT-RE", scalarStream(ds), func(r ring.Ring[float64]) (Maintainer[float64], error) {
				return ivm.NewNaiveReEval(q, r, lift), nil
			}))
		tables = append(tables, workTable(fmt.Sprintf("Figure 11 (Appendix C): SUM(%s) over %s", sumVar, ds.Name),
			scalarNote(true, "F-RE and DBT-RE"), results))
	}
	return tables
}
