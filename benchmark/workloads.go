package main

import (
	"fmt"
	"math"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/db"
	"fivm/internal/ivm"
	"fivm/internal/ring"
)

// workload is one of the benchmark's four sets of inputs.
type workload struct {
	name string
	why  string
	run  func(p params) (*result, error)
}

// workloads is filled in init: the run functions refer back to the manifest,
// which lists the workloads.
var workloads []workload

func init() {
	workloads = []workload{
		{"cofactor-stream",
			"paper Fig. 7: one 43-variable cofactor view, in memory, state beyond cache; ring kernels and delta plans do all the work, wal/netserve/replica none",
			cofactorStream.run},
		{"multiview-durable",
			"four scalar SQL views on one durable ingest, batches of 100: per-batch data/db/wal cost dominates and ring work is trivial; the only workload with checkpoints and recovery",
			multiviewDurable.run},
		{"serve-read-heavy",
			"closed-loop HTTP reads on a follower while the primary takes 50 writes/s: netserve routing+JSON, serve pins and data snapshots carry the load, ivm idles",
			func(p params) (*result, error) { return runServe(serveReadHeavy, p) }},
		{"serve-write-heavy",
			"same topology the other way round: saturating POST /apply through JSON, queue, WAL, delta plans and frame shipping, reads only probe staleness",
			func(p params) (*result, error) { return runServe(serveWriteHeavy, p) }},
	}
}

// --- cofactor-stream -----------------------------------------------------------

var cofactorStream = &inprocWorkload[ring.Triple]{
	name:     "cofactor-stream",
	retailer: datasets.RetailerConfig{Locations: 20, Dates: 200, Items: 100, ItemsPerLocDate: 25},
	batch:    1000,
	ring:     ring.Cofactor{},
	views: func(st *retailerStream) []viewDef[ring.Triple] {
		idx := varIndex(st.ds)
		return []viewDef[ring.Triple]{{
			name:  "cofactor",
			q:     st.ds.Query.Rename("cofactor"),
			lift:  func(v string, x data.Value) ring.Triple { return ring.LiftValue(idx[v], x.AsFloat()) },
			order: st.ds.NewOrder, compose: true,
		}}
	},
	oracle: cofactorOracle,
	equal: func(a, b ring.Triple) bool {
		const m = 43
		if !closeTo(a.C, b.C) {
			return false
		}
		as, bs, aq, bq := a.ExpandSum(m), b.ExpandSum(m), a.ExpandQ(m), b.ExpandQ(m)
		for i := range as {
			if !closeTo(as[i], bs[i]) {
				return false
			}
		}
		for i := range aq {
			if !closeTo(aq[i], bq[i]) {
				return false
			}
		}
		return true
	},
}

func varIndex(ds *datasets.Dataset) map[string]int {
	idx := map[string]int{}
	for i, v := range ds.Query.Vars() {
		idx[v] = i
	}
	return idx
}

// closeTo is equality to 1e-9 relative.
func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// cofactorOracle computes the cofactor aggregate of the join by hand: a
// left-deep hash join from Inventory outwards, accumulating count, sums and
// products of the 43 variables in plain loops. ivm.NewNaiveReEval, which the
// scalar views use, materialises the join and then multiplies 43 growing
// matrices per row; at 300 K rows that takes minutes.
func cofactorOracle(d *db.DB, st *retailerStream, v viewDef[ring.Triple]) (map[string]ring.Triple, error) {
	idx := varIndex(st.ds)
	m := len(idx)
	type dim struct {
		keyCols []int // columns shared with what is already joined
		cols    []int // variable index per column
		rows    map[string][]data.Entry[int64]
	}
	rels := []string{"Inventory", "Item", "Weather", "Location", "Census"}
	bound := map[string]bool{}
	var dims []dim
	for i, rel := range rels {
		base := d.Base(rel)
		sch := base.Schema()
		dm := dim{rows: map[string][]data.Entry[int64]{}}
		for c, a := range sch {
			dm.cols = append(dm.cols, idx[a])
			if bound[a] {
				dm.keyCols = append(dm.keyCols, c)
			}
		}
		for _, a := range sch {
			bound[a] = true
		}
		if i == 0 {
			dm.rows[""] = base.Entries()
		} else {
			var buf []byte
			for _, e := range base.Entries() {
				buf = buf[:0]
				for _, c := range dm.keyCols {
					buf = data.Tuple{e.Tuple[c]}.AppendKey(buf)
				}
				dm.rows[string(buf)] = append(dm.rows[string(buf)], e)
			}
		}
		dims = append(dims, dm)
	}

	x := make([]float64, m)
	xv := make([]data.Value, m)
	var c float64
	s := make([]float64, m)
	q := make([]float64, m*m)
	var join func(level int, mult float64)
	join = func(level int, mult float64) {
		if level == len(dims) {
			c += mult
			for i, xi := range x {
				s[i] += mult * xi
				row := q[i*m : (i+1)*m]
				mx := mult * xi
				for j, xj := range x {
					row[j] += mx * xj
				}
			}
			return
		}
		dm := dims[level]
		var buf []byte
		for _, kc := range dm.keyCols {
			buf = data.Tuple{xv[dm.cols[kc]]}.AppendKey(buf)
		}
		for _, e := range dm.rows[string(buf)] {
			for col, vi := range dm.cols {
				xv[vi] = e.Tuple[col]
				x[vi] = e.Tuple[col].AsFloat()
			}
			join(level+1, mult*float64(e.Payload))
		}
	}
	join(0, 1)
	if c == 0 {
		return map[string]ring.Triple{}, nil
	}
	vars := make([]int32, m)
	for i := range vars {
		vars[i] = int32(i)
	}
	return map[string]ring.Triple{data.Tuple{}.Key(): {C: c, Vars: vars, S: s, Q: q}}, nil
}

// --- multiview-durable ---------------------------------------------------------

const fiveWay = "Inventory NATURAL JOIN Item NATURAL JOIN Weather NATURAL JOIN Location NATURAL JOIN Census"

// sumOf is the lifting of SUM(target); the empty target is SUM(1).
func sumOf(target string) data.LiftFunc[float64] {
	return func(v string, x data.Value) float64 {
		if v == target {
			return x.AsFloat()
		}
		return 1
	}
}

// dashboardViews are the scalar SQL views: v_total and v_by_locn over the
// five-way join, v_by_locn_date (thousands of result keys) and v_by_ksn over
// two relations each. The lifts restate the SQL for the shadow engines and
// the oracle, which cannot reach the SQL front end's.
func dashboardViews(names ...string) []viewDef[float64] {
	all := []viewDef[float64]{
		{name: "v_total", lift: sumOf("inventoryunits"),
			sql: "CREATE VIEW v_total AS SELECT SUM(inventoryunits) FROM " + fiveWay},
		{name: "v_by_locn", lift: sumOf("inventoryunits"),
			sql: "CREATE VIEW v_by_locn AS SELECT locn, SUM(inventoryunits) FROM " + fiveWay + " GROUP BY locn"},
		{name: lookupView, lift: sumOf("inventoryunits"),
			sql: "CREATE VIEW " + lookupView + " AS SELECT locn, dateid, SUM(inventoryunits) FROM Inventory NATURAL JOIN Weather GROUP BY locn, dateid"},
		{name: ksnView, lift: sumOf(""),
			sql: "CREATE VIEW " + ksnView + " AS SELECT ksn, SUM(1) FROM Inventory NATURAL JOIN Item GROUP BY ksn"},
	}
	var out []viewDef[float64]
	for _, v := range all {
		for _, n := range names {
			if v.name == n {
				out = append(out, v)
			}
		}
	}
	return out
}

var multiviewDurable = &inprocWorkload[float64]{
	name:     "multiview-durable",
	retailer: datasets.RetailerConfig{Locations: 20, Dates: 120, Items: 100, ItemsPerLocDate: 25},
	batch:    100,
	durable:  true,
	ring:     ring.Float{},
	views: func(*retailerStream) []viewDef[float64] {
		return dashboardViews("v_total", "v_by_locn", lookupView, ksnView)
	},
	oracle: naiveOracle,
	equal:  closeTo,
}

// naiveOracle re-evaluates a scalar view from the base relations with
// ivm.NewNaiveReEval: join everything, then aggregate.
func naiveOracle(d *db.DB, _ *retailerStream, v viewDef[float64]) (map[string]float64, error) {
	m := ivm.NewNaiveReEval[float64](v.q, ring.Float{}, v.lift)
	for _, rel := range v.q.RelNames() {
		base := d.Base(rel)
		if base == nil {
			return nil, fmt.Errorf("no base relation %s", rel)
		}
		conv := data.NewRelation[float64](ring.Float{}, base.Schema())
		conv.Reserve(base.Len())
		base.Iterate(func(t data.Tuple, n int64) bool {
			conv.Merge(t, float64(n))
			return true
		})
		if err := m.Load(rel, conv); err != nil {
			return nil, err
		}
	}
	if err := m.Init(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	key := canonicalKey(m.Result().Schema())
	m.Result().Iterate(func(t data.Tuple, p float64) bool {
		out[key(t)] = p
		return true
	})
	return out, nil
}
