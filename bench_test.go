// Benchmarks regenerating the per-update costs behind every table and
// figure of the paper's evaluation. Each benchmark prepares a strategy's
// state outside the timer and then measures update application. The full
// experiment tables (throughput/memory traces over whole streams) come from
// `go run ./cmd/fivm <experiment>`; these benches expose the same
// comparisons to `go test -bench`.
package fivm

import (
	"fmt"
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/factorized"
	"fivm/internal/ivm"
	"fivm/internal/matrix"
	"fivm/internal/mcm"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// --- shared helpers ----------------------------------------------------------

func tripleDeltaOf(q query.Query, b datasets.Batch) *data.Relation[ring.Triple] {
	cf := ring.Cofactor{}
	rd, _ := q.Rel(b.Rel)
	d := data.NewRelation[ring.Triple](cf, rd.Schema)
	one := cf.One()
	for _, t := range b.Tuples {
		d.Merge(t, one)
	}
	return d
}

func floatDeltaOf(q query.Query, b datasets.Batch) *data.Relation[float64] {
	rd, _ := q.Rel(b.Rel)
	d := data.NewRelation[float64](ring.Float{}, rd.Schema)
	for _, t := range b.Tuples {
		d.Merge(t, 1)
	}
	return d
}

func tripleLiftOf(vars data.Schema) data.LiftFunc[ring.Triple] {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) ring.Triple {
		return ring.LiftValue(idx[v], x.AsFloat())
	}
}

func degMapLiftOf(vars data.Schema) data.LiftFunc[ring.DegMap] {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return func(v string, x data.Value) ring.DegMap {
		return ring.LiftDegMap(idx[v], x.AsFloat())
	}
}

func benchRetailer() *datasets.Dataset {
	return datasets.GenRetailer(datasets.RetailerConfig{
		Locations: 10, Dates: 30, Items: 60, ItemsPerLocDate: 10, Seed: 1,
	})
}

func benchHousing() *datasets.Dataset {
	return datasets.GenHousing(datasets.HousingConfig{Postcodes: 200, Scale: 1, Seed: 2})
}

func benchTwitter() *datasets.Dataset {
	return datasets.GenTwitter(datasets.TwitterConfig{Users: 200, Edges: 3000, Seed: 3})
}

// --- Figure 6 (left): one-row updates to A2 in A1·A2·A3 ------------------------

func BenchmarkFig6LeftRowUpdate(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(1))
		ms := []*matrix.Dense{matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
		rowOf := func() (int, []float64) {
			i := rng.Intn(n)
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()*2 - 1
			}
			return i, row
		}

		b.Run(fmt.Sprintf("F-IVM/n=%d", n), func(b *testing.B) {
			hc, err := mcm.NewHashChain(3, 2, ms)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, row := rowOf()
				_, r1 := mcm.RowUpdate(n, idx, row)
				if err := hc.ApplyRank1(r1.U, r1.V); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DenseF-IVM/n=%d", n), func(b *testing.B) {
			dc, _ := mcm.NewDenseChain(2, ms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, row := rowOf()
				_, r1 := mcm.RowUpdate(n, idx, row)
				dc.ApplyRank1FIVM(r1.U, r1.V)
			}
		})
		b.Run(fmt.Sprintf("Dense1-IVM/n=%d", n), func(b *testing.B) {
			dc, _ := mcm.NewDenseChain(2, ms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, row := rowOf()
				d, _ := mcm.RowUpdate(n, idx, row)
				dc.ApplyFirstOrder(d)
			}
		})
		b.Run(fmt.Sprintf("DenseRE-EVAL/n=%d", n), func(b *testing.B) {
			dc, _ := mcm.NewDenseChain(2, ms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, row := rowOf()
				d, _ := mcm.RowUpdate(n, idx, row)
				dc.ApplyReEval(d)
			}
		})
	}
}

// --- Figure 6 (right): rank-r updates ------------------------------------------

func BenchmarkFig6RightRankUpdate(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(2))
	ms := []*matrix.Dense{matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
	for _, r := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("DenseF-IVM/r=%d", r), func(b *testing.B) {
			dc, _ := mcm.NewDenseChain(2, ms)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, terms := matrix.RandomRank(n, n, r, rng)
				dc.ApplyRankRFIVM(terms)
			}
		})
	}
	b.Run("DenseRE-EVAL", func(b *testing.B) {
		dc, _ := mcm.NewDenseChain(2, ms)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _ := matrix.RandomRank(n, n, 4, rng)
			dc.ApplyReEval(d)
		}
	})
}

// --- Figure 7: cofactor maintenance ---------------------------------------------

// maintainer is what the figure benchmarks drive: an F-IVM engine or a
// competitor.
type maintainer[P any] interface {
	Init() error
	ApplyDelta(rel string, delta *data.Relation[P]) error
}

// benchCofactorUpdates measures batch application against a warm strategy.
func benchCofactorUpdates[P any](b *testing.B, m maintainer[P], ds *datasets.Dataset,
	toDelta func(q query.Query, bt datasets.Batch) *data.Relation[P], batchSize int) {
	b.Helper()
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), batchSize)
	if err := m.Init(); err != nil {
		b.Fatal(err)
	}
	tuples := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := stream[i%len(stream)]
		if err := m.ApplyDelta(bt.Rel, toDelta(ds.Query, bt)); err != nil {
			b.Fatal(err)
		}
		tuples += len(bt.Tuples)
	}
	b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/sec")
}

func benchFig7(b *testing.B, ds *datasets.Dataset) {
	vars := ds.Query.Vars()
	b.Run("F-IVM", func(b *testing.B) {
		m, err := ivm.New[ring.Triple](ds.Query, ds.NewOrder(), ring.Cofactor{}, tripleLiftOf(vars),
			ivm.Options[ring.Triple]{ComposeChains: true})
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[ring.Triple](b, m, ds, tripleDeltaOf, 100)
	})
	b.Run("SQL-OPT", func(b *testing.B) {
		m, err := ivm.New[ring.DegMap](ds.Query, ds.NewOrder(), ring.DegreeMap{}, degMapLiftOf(vars),
			ivm.Options[ring.DegMap]{ComposeChains: true})
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[ring.DegMap](b, m, ds, func(q query.Query, bt datasets.Batch) *data.Relation[ring.DegMap] {
			rd, _ := q.Rel(bt.Rel)
			dm := ring.DegreeMap{}
			d := data.NewRelation[ring.DegMap](dm, rd.Schema)
			for _, t := range bt.Tuples {
				d.Merge(t, dm.One())
			}
			return d
		}, 100)
	})
	b.Run("DBT-RING", func(b *testing.B) {
		m, err := ivm.NewRecursive[ring.Triple](ds.Query, ring.Cofactor{}, tripleLiftOf(vars), nil)
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[ring.Triple](b, m, ds, tripleDeltaOf, 100)
	})
	b.Run("DBT-scalar", func(b *testing.B) {
		m, err := ivm.NewMultiRecursive(ds.Query, ring.Float{}, ivm.CofactorAggSpecs(vars), nil)
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[float64](b, m, ds, floatDeltaOf, 100)
	})
	b.Run("1-IVM-scalar", func(b *testing.B) {
		m, err := ivm.NewMultiFirstOrder(ds.Query, ds.NewOrder(), ring.Float{}, ivm.CofactorAggSpecs(vars))
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[float64](b, m, ds, floatDeltaOf, 100)
	})
}

func BenchmarkFig7Retailer(b *testing.B) { benchFig7(b, benchRetailer()) }
func BenchmarkFig7Housing(b *testing.B)  { benchFig7(b, benchHousing()) }

// --- Figure 8: result representations -------------------------------------------

func BenchmarkFig8Representations(b *testing.B) {
	ds := benchHousing()
	jq := query.MustNew("join", ds.Query.Vars(), ds.Query.Rels...)
	for _, mode := range []factorized.Mode{factorized.FactPayloads, factorized.ListPayloads, factorized.ListKeys} {
		b.Run(mode.String(), func(b *testing.B) {
			r, err := factorized.New(mode, jq, ds.NewOrder(), nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Init(); err != nil {
				b.Fatal(err)
			}
			stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := stream[i%len(stream)]
				rd, _ := jq.Rel(bt.Rel)
				d := data.NewRelation[int64](ring.Int{}, rd.Schema)
				for _, t := range bt.Tuples {
					d.Merge(t, 1)
				}
				if err := r.ApplyDelta(bt.Rel, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 11: SUM-aggregate strategies -----------------------------------------

func BenchmarkFig11Sum(b *testing.B) {
	ds := benchRetailer()
	lift := func(v string, x data.Value) float64 {
		if v == "inventoryunits" {
			return x.AsFloat()
		}
		return 1
	}
	mk := map[string]func() maintainer[float64]{
		"F-IVM": func() maintainer[float64] {
			m, err := ivm.New[float64](ds.Query, ds.NewOrder(), ring.Float{}, lift,
				ivm.Options[float64]{ComposeChains: true})
			if err != nil {
				b.Fatal(err)
			}
			return m
		},
		"DBT": func() maintainer[float64] {
			m, err := ivm.NewRecursive[float64](ds.Query, ring.Float{}, lift, nil)
			if err != nil {
				b.Fatal(err)
			}
			return m
		},
		"1-IVM": func() maintainer[float64] {
			m, err := ivm.NewFirstOrder[float64](ds.Query, ds.NewOrder(), ring.Float{}, lift)
			if err != nil {
				b.Fatal(err)
			}
			return m
		},
		"F-RE": func() maintainer[float64] {
			m, err := ivm.NewReEval[float64](ds.Query, ds.NewOrder(), ring.Float{}, lift)
			if err != nil {
				b.Fatal(err)
			}
			return m
		},
		"DBT-RE": func() maintainer[float64] {
			return ivm.NewNaiveReEval[float64](ds.Query, ring.Float{}, lift)
		},
	}
	for _, name := range []string{"F-IVM", "DBT", "1-IVM", "F-RE", "DBT-RE"} {
		b.Run(name, func(b *testing.B) {
			benchCofactorUpdates[float64](b, mk[name](), ds, floatDeltaOf, 100)
		})
	}
}

// --- Figure 12: batch sizes -------------------------------------------------------

func BenchmarkFig12BatchSize(b *testing.B) {
	ds := benchRetailer()
	vars := ds.Query.Vars()
	for _, bs := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("F-IVM/bs=%d", bs), func(b *testing.B) {
			m, err := ivm.New[ring.Triple](ds.Query, ds.NewOrder(), ring.Cofactor{}, tripleLiftOf(vars),
				ivm.Options[ring.Triple]{ComposeChains: true})
			if err != nil {
				b.Fatal(err)
			}
			benchCofactorUpdates[ring.Triple](b, m, ds, tripleDeltaOf, bs)
		})
	}
}

// --- Figure 13: triangle query -----------------------------------------------------

func BenchmarkFig13Triangle(b *testing.B) {
	ds := benchTwitter()
	vars := ds.Query.Vars()
	b.Run("F-IVM", func(b *testing.B) {
		m, err := ivm.New[ring.Triple](ds.Query, ds.NewOrder(), ring.Cofactor{}, tripleLiftOf(vars),
			ivm.Options[ring.Triple]{})
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[ring.Triple](b, m, ds, tripleDeltaOf, 100)
	})
	b.Run("DBT-RING", func(b *testing.B) {
		m, err := ivm.NewRecursive[ring.Triple](ds.Query, ring.Cofactor{}, tripleLiftOf(vars), nil)
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[ring.Triple](b, m, ds, tripleDeltaOf, 100)
	})
	b.Run("1-IVM-scalar", func(b *testing.B) {
		m, err := ivm.NewMultiFirstOrder(ds.Query, ds.NewOrder(), ring.Float{}, ivm.CofactorAggSpecs(vars))
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[float64](b, m, ds, floatDeltaOf, 100)
	})
	b.Run("Indicator", func(b *testing.B) {
		m, err := ivm.New[int64](ds.Query, ds.NewOrder(), ring.Int{},
			func(string, data.Value) int64 { return 1 },
			ivm.Options[int64]{Indicators: true})
		if err != nil {
			b.Fatal(err)
		}
		benchCofactorUpdates[int64](b, m, ds, func(q query.Query, bt datasets.Batch) *data.Relation[int64] {
			rd, _ := q.Rel(bt.Rel)
			d := data.NewRelation[int64](ring.Int{}, rd.Schema)
			for _, t := range bt.Tuples {
				d.Merge(t, 1)
			}
			return d
		}, 100)
	})
}

// --- the O(1) single-tuple path -------------------------------------------------

func BenchmarkEngineSingleTupleUpdate(b *testing.B) {
	// The O(1) path: single-tuple updates to S in the paper query fix all
	// variables along the leaf-to-root path.
	q := query.MustNew("Q", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "C", "E")},
		query.RelDef{Name: "T", Schema: data.NewSchema("C", "D")},
	)
	o := vorder.MustNew(vorder.V("A", vorder.V("B"), vorder.V("C", vorder.V("D"), vorder.V("E"))))
	m, err := ivm.New[int64](q, o, ring.Int{}, func(string, data.Value) int64 { return 1 }, ivm.Options[int64]{})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Init(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := data.NewRelation[int64](ring.Int{}, data.NewSchema("A", "C", "E"))
		d.Merge(data.Ints(int64(rng.Intn(100)), int64(rng.Intn(100)), int64(rng.Intn(10))), 1)
		if err := m.ApplyDelta("S", d); err != nil {
			b.Fatal(err)
		}
	}
}
