package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"fivm/internal/data"
	"fivm/internal/query"
	"fivm/internal/ring"
	"fivm/internal/ring/ringtest"
	"fivm/internal/viewtree"
	"fivm/internal/vorder"
)

// initCase is one configuration of the Init differential.
type initCase[P any] struct {
	name  string
	q     query.Query
	order func() *vorder.Order
	r     ring.Ring[P]
	lift  data.LiftFunc[P]
	opts  Options[P]
	eq    func(a, b P) bool
}

// randomCounts builds a base relation as a data.BaseStore keeps it: every
// relation of q over its variables, every other one in a shuffled column
// order, with multiplicities 1 to 3.
func randomCounts(rng *rand.Rand, q query.Query, dom, n int) map[string]*data.Relation[int64] {
	out := make(map[string]*data.Relation[int64])
	for i, rd := range q.Rels {
		sch := rd.Schema.Clone()
		if i%2 == 1 {
			rng.Shuffle(len(sch), func(a, b int) { sch[a], sch[b] = sch[b], sch[a] })
		}
		r := data.NewRelation[int64](ring.Int{}, sch)
		for j := 0; j < n; j++ {
			t := make(data.Tuple, len(sch))
			for k := range t {
				t[k] = data.Int(int64(rng.Intn(dom)))
			}
			r.Merge(t, int64(1+rng.Intn(3)))
		}
		out[rd.Name] = r
	}
	return out
}

// runInitDifferential: an engine Loaded with random bases — as relations of
// the ring, and as multiplicities (LoadCounts) — and then initialised stores
// exactly the views the same rows build as deltas on an empty engine (every
// stored view, through CheckConsistency), and its result equals the delta
// path's and NewReEval's.
func runInitDifferential[P any](t *testing.T, c initCase[P], seeds int) {
	t.Run(c.name, func(t *testing.T) {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			counts := randomCounts(rng, c.q, 4, 12)
			bases := make(map[string]*data.Relation[P])
			for rel, cr := range counts {
				b := data.NewRelation(c.r, cr.Schema())
				cr.Iterate(func(tu data.Tuple, n int64) bool {
					b.Merge(tu, data.Mult(c.r, n))
					return true
				})
				bases[rel] = b
			}
			build := func() *Engine[P] {
				e, err := New(c.q, c.order(), c.r, c.lift, c.opts)
				must(t, err)
				return e
			}
			updatable := func(rel string) bool {
				for _, u := range c.opts.Updatable {
					if u == rel {
						return true
					}
				}
				return len(c.opts.Updatable) == 0
			}
			loaded, counted, fed := build(), build(), build()
			var batch []NamedDelta[P]
			for _, rd := range c.q.Rels {
				must(t, loaded.Load(rd.Name, bases[rd.Name]))
				must(t, counted.LoadCounts(rd.Name, counts[rd.Name]))
				if updatable(rd.Name) {
					batch = append(batch, NamedDelta[P]{Rel: rd.Name, Delta: bases[rd.Name]})
				} else {
					must(t, fed.Load(rd.Name, bases[rd.Name]))
				}
			}
			for _, e := range []*Engine[P]{loaded, counted, fed} {
				must(t, e.Init())
			}
			must(t, fed.ApplyDeltas(batch))
			for name, e := range map[string]*Engine[P]{"Load": loaded, "LoadCounts": counted} {
				if !e.Result().Equal(fed.Result(), c.eq) {
					t.Fatalf("seed %d: Init after %s reads\n%v\nthe same rows as deltas\n%v", seed, name, e.Result(), fed.Result())
				}
				if err := e.CheckConsistency(bases, c.eq); err != nil {
					t.Fatalf("seed %d: Init after %s: %v", seed, name, err)
				}
			}
			if err := fed.CheckConsistency(bases, c.eq); err != nil {
				t.Fatalf("seed %d: the same rows as deltas: %v", seed, err)
			}
			if c.opts.PayloadTransform == nil {
				re, err := NewReEval(c.q, c.order(), c.r, c.lift)
				must(t, err)
				for rel, b := range bases {
					must(t, re.Load(rel, b))
				}
				must(t, re.Init())
				if !loaded.Result().Equal(re.Result(), c.eq) {
					t.Fatalf("seed %d: Init reads\n%v\nNewReEval\n%v", seed, loaded.Result(), re.Result())
				}
			}
		}
	})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func sameDegMap(a, b ring.DegMap) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestInitMatchesDeltas runs the Init differential over the Int, Float,
// cofactor and degree-map rings; with chains composed or not, the cost-based
// materialization, indicators (the triangle), a payload transform and an
// updatable subset.
func TestInitMatchesDeltas(t *testing.T) {
	q := paperQuery()
	chain := query.MustNew("chain", nil,
		query.RelDef{Name: "R", Schema: data.NewSchema("A", "B", "C", "D")},
		query.RelDef{Name: "S", Schema: data.NewSchema("A", "E")})
	chainOrder := func() *vorder.Order {
		return vorder.MustNew(vorder.V("A", vorder.V("B", vorder.V("C", vorder.V("D"))), vorder.V("E")))
	}
	double := func(n *viewtree.Node, p int64) int64 { return p * int64(1+len(n.Keys)) }
	for _, c := range []initCase[int64]{
		{name: "Int", q: q, order: paperOrder, r: ring.Int{}, lift: valueLift},
		{name: "Int with free variables", q: paperQuery("A", "C"), order: paperOrder, r: ring.Int{}, lift: valueLift},
		{name: "Int chain", q: chain, order: chainOrder, r: ring.Int{}, lift: valueLift},
		{name: "Int chain composed", q: chain, order: chainOrder, r: ring.Int{}, lift: valueLift, opts: Options[int64]{ComposeChains: true}},
		{name: "Int chain, S updatable", q: chain, order: chainOrder, r: ring.Int{}, lift: valueLift, opts: Options[int64]{Updatable: []string{"S"}}},
		{name: "Int, R updatable", q: q, order: paperOrder, r: ring.Int{}, lift: valueLift, opts: Options[int64]{Updatable: []string{"R"}}},
		{name: "Int cost-materialized", q: q, order: paperOrder, r: ring.Int{}, lift: valueLift, opts: Options[int64]{CostMaterialize: true}},
		{name: "Int self-planned", q: q, order: func() *vorder.Order { return nil }, r: ring.Int{}, lift: valueLift},
		{name: "Int transformed", q: q, order: paperOrder, r: ring.Int{}, lift: valueLift, opts: Options[int64]{PayloadTransform: double}},
		{name: "Int transformed, all stored", q: chain, order: chainOrder, r: ring.Int{}, lift: valueLift,
			opts: Options[int64]{PayloadTransform: double, MaterializeAll: true}},
		{name: "Int triangle with indicators", q: triangleQuery(), order: triangleOrder, r: ring.Int{}, lift: countLift, opts: Options[int64]{Indicators: true}},
	} {
		c.eq = eqInt
		runInitDifferential(t, c, 12)
	}
	runInitDifferential(t, initCase[float64]{name: "Float", q: q, order: paperOrder, r: ring.Float{}, lift: floatLift,
		eq: func(a, b float64) bool { return a == b }}, 12)
	runInitDifferential(t, initCase[float64]{name: "Float chain composed", q: chain, order: chainOrder, r: ring.Float{}, lift: floatLift,
		opts: Options[float64]{ComposeChains: true}, eq: func(a, b float64) bool { return a == b }}, 12)
	runInitDifferential(t, initCase[ring.Triple]{name: "Cofactor", q: q, order: paperOrder, r: ring.Cofactor{}, lift: cofactorLift, eq: sameTriple}, 8)
	degLift := func(v string, x data.Value) ring.DegMap { return ring.LiftDegMap(paperVars[v], x.AsFloat()) }
	runInitDifferential(t, initCase[ring.DegMap]{name: "DegMap", q: q, order: paperOrder, r: ring.DegreeMap{}, lift: degLift, eq: sameDegMap}, 8)
}

// TestBackfillCountsWorkPerRow: initialising a view over a chain the tree
// does not store, from multiplicities (LoadCounts, the backfill path), costs
// at most one ring operation per base row however long the chain: its links
// fold into the view, a lifting of one costs nothing, and the row's lifted
// value goes into the view's payload by one Mul — by one Add where that value
// is one.
// Built a relation per link, as before the fold, these 1 000 rows cost 1 432
// Mul over two links, 2 400 over three and 3 389 over four.
func TestBackfillCountsWorkPerRow(t *testing.T) {
	const rows, groups = 1000, 10
	for links := 2; links <= 4; links++ {
		vars := []string{"A"}
		for i := 1; i <= links; i++ {
			vars = append(vars, fmt.Sprintf("X%d", i))
		}
		q := query.MustNew("chain", data.NewSchema("A"), query.RelDef{Name: "R", Schema: data.NewSchema(vars...)})
		v := vorder.V(vars[links])
		for i := links - 1; i >= 0; i-- {
			v = vorder.V(vars[i], v)
		}
		var c ringtest.Counter
		r := ringtest.Wrap[int64](ring.Int{}, &c)
		last := vars[links]
		e, err := New(q, vorder.MustNew(v), r, func(x string, val data.Value) int64 {
			if x == last {
				return val.AsInt()
			}
			return 1
		}, Options[int64]{})
		must(t, err)
		counts := data.NewRelation[int64](ring.Int{}, q.Rels[0].Schema)
		rng := rand.New(rand.NewSource(int64(links)))
		for counts.Len() < rows {
			t := data.Tuple{data.Int(int64(rng.Intn(groups)))}
			for range links {
				t = append(t, data.Int(int64(rng.Intn(50))))
			}
			counts.Set(t, 1)
		}
		must(t, e.LoadCounts("R", counts))
		must(t, e.Init())
		if stored := e.ViewCount(); stored != 1 {
			t.Fatalf("%d links: %d views stored, want the root alone", links, stored)
		}
		ones := int64(0) // rows whose lifted value is one: an Add, not a Mul
		counts.Iterate(func(tu data.Tuple, _ int64) bool {
			if tu[links] == data.Int(1) {
				ones++
			}
			return true
		})
		// A row of value one that opens its group is a copy, not an Add, and
		// which row opens a group follows the table's hash order.
		if got := c.Load(); got.Mul != rows-ones || got.Add > ones || got.Add < ones-groups {
			t.Errorf("%d links: backfill counted %d Mul and %d Add over %d rows, want %d and %d less at most %d", links, got.Mul, got.Add, rows, rows-ones, ones, groups)
		}
	}
}
