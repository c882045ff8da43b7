package bench

import (
	"fmt"
	"time"

	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// Fig7Config scales the cofactor maintenance experiments (Figure 7).
type Fig7Config struct {
	Dataset   string // "retailer" or "housing"
	BatchSize int
	// Timeout bounds each strategy's run (the paper's one-hour limit,
	// scaled down); the scalar per-aggregate strategies are expected to
	// hit it.
	Timeout time.Duration
	// Group is the number of stream batches applied per ApplyDeltas call
	// (default 1); see RunOptions.Group.
	Group int
	// Workers is the shard/worker count for parallel maintenance (default 1,
	// sequential). Strategies are wrapped in ivm.NewParallel, partitioning
	// the database by the best-covered join variable.
	Workers  int
	Retailer datasets.RetailerConfig
	Housing  datasets.HousingConfig
	// IncludeScalar adds the per-aggregate DBT and 1-IVM competitors
	// (very slow by design — that is the result).
	IncludeScalar bool
	// AutoOrder replaces the handpicked variable orders with
	// optimizer-chosen ones: engines receive a nil order plus dataset
	// statistics and self-plan (the -auto-order CLI flag).
	AutoOrder bool
}

// DefaultFig7 is a laptop-scale configuration.
func DefaultFig7(dataset string) Fig7Config {
	return Fig7Config{
		Dataset:       dataset,
		BatchSize:     1000,
		Timeout:       5 * time.Second,
		Retailer:      datasets.DefaultRetailer(),
		Housing:       datasets.DefaultHousing(),
		IncludeScalar: true,
	}
}

func fig7Dataset(cfg Fig7Config) *datasets.Dataset {
	if cfg.Dataset == "housing" {
		return datasets.GenHousing(cfg.Housing)
	}
	return datasets.GenRetailer(cfg.Retailer)
}

// Fig7 regenerates Figure 7: incremental maintenance of the cofactor matrix
// under batched updates to all relations, plus the ONE variants (updates to
// the largest relation only, all others preloaded). Expected shape: F-IVM
// has the highest throughput and lowest memory; SQL-OPT trails by a
// constant factor; DBT-RING pays for extra views; the scalar-payload DBT
// and 1-IVM are orders of magnitude slower (timing out on scaled streams
// just as they time out at one hour in the paper).
func Fig7(cfg Fig7Config) []*Table {
	ds := fig7Dataset(cfg)
	cs := newCofactorStrategies(ds.Query)
	ord := ds.NewOrder
	if cfg.AutoOrder {
		cs.stats = analyze(ds)
		ord = func() *vorder.Order { return nil }
	}
	q, w := ds.Query, cfg.Workers
	triple, degMap, float := tripleDelta(q), degMapDelta(q), floatDelta(q)
	// The full stream delivers every relation; the ONE variants stream the
	// largest relation only, into a database preloaded with all the others.
	stream := datasets.RoundRobinStream(ds, q.RelNames(), cfg.BatchSize)
	oneStream := datasets.SingleRelationStream(ds, ds.Largest, cfg.BatchSize)
	largest := []string{ds.Largest}

	scs := []scenario{
		// F-IVM: one view tree, cofactor-ring payloads.
		strategy("F-IVM", ds, ring.Cofactor{}, w, cs.stats,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.FIVM(ord(), nil) }, triple, stream),
		// SQL-OPT: same views, degree-indexed aggregate encoding.
		strategy("SQL-OPT", ds, ring.DegreeMap{}, w, nil,
			func() (ivm.Maintainer[ring.DegMap], error) { return cs.SQLOPT(ord(), nil) }, degMap, stream),
		// DBT-RING: recursive hierarchies, cofactor-ring payloads.
		strategy("DBT-RING", ds, ring.Cofactor{}, w, nil,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.DBTRing(nil) }, triple, stream),
	}
	if cfg.IncludeScalar {
		scs = append(scs,
			// DBT: one scalar hierarchy per aggregate, no sharing.
			strategy("DBT", ds, ring.Float{}, w, nil,
				func() (ivm.Maintainer[float64], error) { return cs.DBTScalar(nil) }, float, stream),
			// 1-IVM: one delta query per aggregate per update.
			strategy("1-IVM", ds, ring.Float{}, w, nil,
				func() (ivm.Maintainer[float64], error) { return cs.FirstOrderScalar(ord()) }, float, stream))
	}
	scs = append(scs,
		strategy("F-IVM ONE", ds, ring.Cofactor{}, w, nil,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.FIVM(ord(), largest) }, triple, oneStream),
		strategy("SQL-OPT ONE", ds, ring.DegreeMap{}, w, nil,
			func() (ivm.Maintainer[ring.DegMap], error) { return cs.SQLOPT(ord(), largest) }, degMap, oneStream),
		strategy("DBT-RING ONE", ds, ring.Cofactor{}, w, nil,
			func() (ivm.Maintainer[ring.Triple], error) { return cs.DBTRing(largest) }, triple, oneStream))
	results := runScenarios(scs, RunOptions{Timeout: cfg.Timeout, Group: cfg.Group})

	title := fmt.Sprintf("Figure 7: cofactor maintenance, %s, batches of %d", ds.Name, cfg.BatchSize)
	if cfg.AutoOrder {
		title += ", auto-order"
	}
	return fig7Tables(workersTitle(title, w), results)
}

// workersTitle annotates a figure title with the run's worker count.
func workersTitle(title string, workers int) string {
	if workers > 1 {
		title += fmt.Sprintf(", %d workers", workers)
	}
	return title
}

// fig7Tables renders a summary plus throughput/memory traces.
func fig7Tables(title string, results []RunResult) []*Table {
	sum := &Table{
		Title:  title,
		Header: []string{"strategy", "views", "tuples", "elapsed", "throughput", "p50 batch", "p99 batch", "peak mem", "status"},
	}
	for _, r := range results {
		sum.AddRow(r.Name, r.Views, r.Tuples, fmtDur(r.Elapsed.Seconds()), fmtTput(r.Throughput),
			fmtDur(r.P50Batch.Seconds()), fmtDur(r.P99Batch.Seconds()), fmtMem(r.PeakMem), r.Status())
	}

	trace := &Table{
		Title:  title + " — throughput per stream fraction",
		Header: []string{"fraction"},
	}
	memTrace := &Table{
		Title:  title + " — memory per stream fraction",
		Header: []string{"fraction"},
	}
	for _, r := range results {
		trace.Header = append(trace.Header, r.Name)
		memTrace.Header = append(memTrace.Header, r.Name)
	}
	maxPts := 0
	for _, r := range results {
		if len(r.Points) > maxPts {
			maxPts = len(r.Points)
		}
	}
	for i := 0; i < maxPts; i++ {
		row := make([]string, 0, len(results)+1)
		memRow := make([]string, 0, len(results)+1)
		frac := ""
		for _, r := range results {
			if i < len(r.Points) {
				if frac == "" {
					frac = fmt.Sprintf("%.1f", r.Points[i].Fraction)
				}
				row = append(row, fmtTput(r.Points[i].TuplesSec))
				memRow = append(memRow, fmtMem(r.Points[i].MemBytes))
			} else {
				row = append(row, "-")
				memRow = append(memRow, "-")
			}
		}
		trace.Rows = append(trace.Rows, append([]string{frac}, row...))
		memTrace.Rows = append(memTrace.Rows, append([]string{frac}, memRow...))
	}
	return []*Table{sum, trace, memTrace}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
