package bench

import (
	"fmt"
	"math/rand"
	"time"

	"fivm/internal/data"
	"fivm/internal/ivm"
	"fivm/internal/matrix"
	"fivm/internal/mcm"
	"fivm/internal/ring"
	"fivm/internal/ring/ringtest"
)

// fig6Strategies maintain A = A1·A2·A3 under updates to A2: F-IVM with the
// update as factors (Engine.ApplyFactoredDelta, paper Section 5), and F-IVM,
// 1-IVM and re-evaluation with the same update listed as an n×n delta.
var fig6Strategies = []string{"F-IVM", "F-IVM listed", "1-IVM", "RE-EVAL"}

// fig6Mul returns the ring multiplications one update Σ u_k v_kᵀ to A2 costs
// the named strategy over the chain of ms, and the update's wall-clock time.
func fig6Mul(name string, ms []*matrix.Dense, terms []matrix.RankOne) (int64, time.Duration) {
	var c ringtest.Counter
	r := ringtest.Wrap[float64](ring.Float{}, &c)
	q, o, one := mcm.ChainQuery(3), mcm.ChainOrder(3), func(string, data.Value) float64 { return 1 }
	var m Maintainer[float64]
	var err error
	switch name {
	case "1-IVM":
		m, err = ivm.NewFirstOrder(q, o, r, one)
	case "RE-EVAL":
		m, err = ivm.NewReEval(q, o, r, one)
	default:
		m, err = ivm.New(q, o, r, one, ivm.Options[float64]{Updatable: []string{"A2"}})
	}
	must(err)
	for i, a := range ms {
		must(m.Load(mcm.MatName(i+1), matrixRel(r, i+1, a)))
	}
	must(m.Init())
	before := c.Load()
	el := elapsed(func() {
		if name != "F-IVM" {
			must(m.ApplyDeltas([]ivm.NamedDelta[float64]{{Rel: "A2", Delta: matrixRel(r, 2, matrix.Recompose(terms, ms[1].Rows, ms[1].Cols))}}))
			return
		}
		for _, t := range terms {
			fd := ivm.FactoredDelta[float64]{Factors: []*data.Relation[float64]{vectorRel(r, 2, t.U), vectorRel(r, 3, t.V)}}
			must(m.(*ivm.Engine[float64]).ApplyFactoredDelta("A2", fd))
		}
	})
	return c.Load().Sub(before).Mul, el
}

// matrixRel is the matrix over ring r as A_i[X_i, X_i+1], zeros left out.
func matrixRel(r ring.Ring[float64], i int, a *matrix.Dense) *data.Relation[float64] {
	rel := data.NewRelation(r, data.NewSchema(mcm.VarName(i), mcm.VarName(i+1)))
	for x := 0; x < a.Rows; x++ {
		for y := 0; y < a.Cols; y++ {
			if v := a.At(x, y); v != 0 {
				rel.Set(data.Ints(int64(x), int64(y)), v)
			}
		}
	}
	return rel
}

// vectorRel is the vector over ring r as a factor over X_i, zeros left out.
func vectorRel(r ring.Ring[float64], i int, u []float64) *data.Relation[float64] {
	rel := data.NewRelation(r, data.NewSchema(mcm.VarName(i)))
	for x, v := range u {
		if v != 0 {
			rel.Set(data.Ints(int64(x)), v)
		}
	}
	return rel
}

// Fig6Left regenerates Figure 6 (left): a dense rank-1 update u vᵀ to A2 for
// each n of cfg.Ns. Expected shape: factored it costs O(n²) ring
// multiplications, listed O(n³), so F-IVM's advantage grows linearly with n.
// (Listed, the paper's one-row update costs O(n²) too, so it shows no gap.)
func Fig6Left(cfg Config) *Table {
	return fig6("Figure 6 (left): matrix chain, dense rank-1 updates to A2", "n", cfg.Ns,
		func(n int) (int, int) { return n, 1 })
}

// Fig6Right regenerates Figure 6 (right): a rank-r update to A2 for each r of
// cfg.Ranks at n = cfg.N. Expected shape: factored it grows linearly in r,
// listed it does not depend on r; they cross where r is about n.
func Fig6Right(cfg Config) *Table {
	return fig6(fmt.Sprintf("Figure 6 (right): matrix chain, rank-r updates to A2, n = %d", cfg.N), "rank", cfg.Ranks,
		func(r int) (int, int) { return cfg.N, r })
}

// fig6 runs every strategy on one update per label: a random rank-r update
// to a random n×n chain, where (n, r) = at(label).
func fig6(title, first string, labels []int, at func(label int) (n, rank int)) *Table {
	t := &Table{Title: title, Note: "ring multiplications per update; lower is better",
		Header: append(append([]string{first}, fig6Strategies...), "elapsed (not bounded)")}
	rng := rand.New(rand.NewSource(1))
	for _, label := range labels {
		n, rank := at(label)
		ms := []*matrix.Dense{matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
		_, terms := matrix.RandomRank(n, n, rank, rng)
		row, total := []any{label}, time.Duration(0)
		for _, s := range fig6Strategies {
			mul, el := fig6Mul(s, ms, terms)
			row, total = append(row, mul), total+el
		}
		t.AddRow(append(row, total)...)
	}
	return t
}
