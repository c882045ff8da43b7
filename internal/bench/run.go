// Package bench regenerates the paper's evaluation (Section 7 and Appendix
// C) as counted work: each strategy runs over a ring that counts its
// operations (ring/ringtest), and a figure reports the views it stores, the
// ring multiplications and floats its updates cost per tuple, and its state.
// Those read the same on every machine; the one wall-clock column, "elapsed
// (not bounded)", is never asserted. The tests pin each figure's shape.
package bench

import (
	"fmt"
	"slices"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/ring/ringtest"
)

// Config scales the figures; each figure reads the fields it names.
type Config struct {
	Retailer datasets.RetailerConfig
	Housing  datasets.HousingConfig
	Twitter  datasets.TwitterConfig
	// BatchSize is the update batch size, Group the stream batches applied
	// per ApplyDeltas call (Figure 7), whose deltas to a relation coalesce.
	BatchSize, Group int
	// Scalar adds the per-aggregate DBT and 1-IVM to Figures 7 and 13, and
	// AutoOrder lets their engines choose variable orders from statistics.
	Scalar, AutoOrder bool
	// Ns and Ranks are Figure 6's sweeps (rank-1 updates at each n, rank-r
	// updates at n = N), Scales Figure 8's Housing sweep, BatchSizes
	// Figure 12's.
	Ns, Ranks, Scales, BatchSizes []int
	N                             int
}

// DefaultConfig is laptop scale.
func DefaultConfig() Config {
	return Config{
		Retailer: datasets.DefaultRetailer(), Housing: datasets.DefaultHousing(), Twitter: datasets.DefaultTwitter(),
		BatchSize: 1000, Scalar: true,
		Ns: []int{16, 32, 64}, N: 64, Ranks: []int{1, 2, 4, 8, 16, 32, 64},
		Scales: []int{1, 2, 3, 4, 5}, BatchSizes: []int{10, 100, 1000, 10000},
	}
}

// title annotates a figure's title with the run's order choice.
func (cfg Config) title(base string) string {
	if cfg.AutoOrder {
		base += ", auto-order"
	}
	return base
}

// RunResult is one strategy's run over a stream: what it stores at the end
// and the ring work its updates cost (Load and Init excluded).
type RunResult struct {
	Name          string
	Views, Tuples int
	Work          ringtest.Counts
	// StateBytes is the strategy's MemoryBytes after the run.
	StateBytes int
	// Elapsed is the run's wall-clock time: reported, never bounded.
	Elapsed time.Duration
	// Err is the maintenance error that stopped the run, if any; the other
	// fields cover the batches applied before it.
	Err error
}

// PerTuple returns the run's Mul and floats per applied tuple.
func (r RunResult) PerTuple() (mul, floats float64) {
	n := float64(max(r.Tuples, 1))
	return float64(r.Work.Mul) / n, float64(r.Work.Floats) / n
}

// Maintainer is what a figure drives: an ivm.Engine or one of the
// competitors, which offer this surface and publish nothing.
type Maintainer[P any] interface {
	Load(rel string, r *data.Relation[P]) error
	Init() error
	ApplyDeltas(batch []ivm.NamedDelta[P]) error
	ViewCount() int
	MemoryBytes() int
}

// RunStream drives m through the stream, group batches (at least one) per
// ApplyDeltas call, one delta per batch built by toDelta, and returns the
// work counted into c meanwhile, the deltas' own merges included. A
// maintenance error stops the run.
func RunStream[P any](name string, m Maintainer[P], toDelta func(datasets.Batch) *data.Relation[P],
	c *ringtest.Counter, stream []datasets.Batch, group int) RunResult {
	group = max(group, 1)
	res, before := RunResult{Name: name}, c.Load()
	res.Elapsed = elapsed(func() {
		for at := 0; at < len(stream) && res.Err == nil; at += group {
			var deltas []ivm.NamedDelta[P]
			n := 0
			for _, b := range stream[at:min(at+group, len(stream))] {
				deltas, n = append(deltas, ivm.NamedDelta[P]{Rel: b.Rel, Delta: toDelta(b)}), n+len(b.Tuples)
			}
			if err := m.ApplyDeltas(deltas); err != nil {
				res.Err = fmt.Errorf("bench: %s: %w", name, err)
			} else {
				res.Tuples += n
			}
		}
	})
	res.Work = c.Load().Sub(before)
	res.Views, res.StateBytes = m.ViewCount(), m.MemoryBytes()
	return res
}

// scenario is one strategy's run in a figure, group stream batches per
// ApplyDeltas call.
type scenario func(group int) RunResult

// runScenarios runs each scenario in turn.
func runScenarios(group int, scs ...scenario) []RunResult {
	results := make([]RunResult, len(scs))
	for i, run := range scs {
		results[i] = run(group)
	}
	return results
}

// strategy is the scenario of a maintainer over payload P, which mk builds
// over r counted. A nil updatable streams into an empty database; otherwise
// every relation outside it is loaded before Init, as in the ONE scenarios.
func strategy[P any](name string, ds *datasets.Dataset, r ring.Ring[P], updatable []string,
	mk func(r ring.Ring[P]) (Maintainer[P], error), stream []datasets.Batch) scenario {
	return func(group int) RunResult {
		var c ringtest.Counter
		r := ringtest.Wrap(r, &c)
		m, err := mk(r)
		must(err)
		toDelta := deltaOf(ds.Query, r)
		for rel, tuples := range ds.Tuples {
			if updatable != nil && !slices.Contains(updatable, rel) {
				must(m.Load(rel, toDelta(datasets.Batch{Rel: rel, Tuples: tuples})))
			}
		}
		must(m.Init())
		return RunStream(name, m, toDelta, &c, stream, group)
	}
}

// deltaOf turns a batch into a delta over r: every tuple with payload One.
func deltaOf[P any](q query.Query, r ring.Ring[P]) func(b datasets.Batch) *data.Relation[P] {
	return func(b datasets.Batch) *data.Relation[P] {
		rd, _ := q.Rel(b.Rel)
		d := data.NewRelation(r, rd.Schema)
		d.Reserve(len(b.Tuples))
		for _, t := range b.Tuples {
			d.Merge(t, r.One())
		}
		return d
	}
}

// workTable renders runs as a figure's table of counted work.
func workTable(title, note string, results []RunResult) *Table {
	t := &Table{Title: title, Note: note, Header: []string{"strategy", "views", "tuples", "Mul/tuple",
		"floats/tuple", "state KiB", "elapsed (not bounded)", "status"}}
	for _, r := range results {
		mul, floats := r.PerTuple()
		status := "ok"
		if r.Err != nil {
			status = "error: " + r.Err.Error()
		}
		t.AddRow(r.Name, r.Views, r.Tuples, oneDecimal(mul), oneDecimal(floats), oneDecimal(float64(r.StateBytes)/1024), r.Elapsed, status)
	}
	return t
}

// oneDecimal renders x with one decimal.
func oneDecimal(x float64) string { return fmt.Sprintf("%.1f", x) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}
