package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/factorized"
	"fivm/internal/ivm"
	"fivm/internal/matrix"
	"fivm/internal/ring"
	"fivm/internal/vorder"
)

// Each figure runs at tiny scale, and its test asserts the paper's claim on
// counted work, which no clock moves. Exact numbers are asserted only where
// the count is bit-equal for a seed (ring/ringtest says which).

func tiny() Config {
	return Config{
		Retailer:  datasets.RetailerConfig{Locations: 4, Dates: 8, Items: 20, ItemsPerLocDate: 4, Seed: 1},
		Housing:   datasets.HousingConfig{Postcodes: 30, Scale: 1, Seed: 2},
		Twitter:   datasets.TwitterConfig{Users: 40, Edges: 240, Seed: 3},
		BatchSize: 50, Scalar: true,
		Ns: []int{8, 16}, N: 24, Ranks: []int{1, 4},
		Scales: []int{1, 3}, BatchSizes: []int{20, 100},
	}
}

// byName indexes runs by strategy.
func byName(results []RunResult) map[string]RunResult {
	out := make(map[string]RunResult, len(results))
	for _, r := range results {
		out[r.Name] = r
	}
	return out
}

// TestFig6Left: a dense rank-1 update to A2 costs F-IVM O(n²)
// multiplications through Engine.ApplyFactoredDelta and O(n³) listed, so
// their ratio doubles with n. (A listed one-row update costs O(n²) too, so
// the update is dense.)
func TestFig6Left(t *testing.T) {
	if tb := Fig6Left(tiny()); len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	rng := rand.New(rand.NewSource(1))
	var prev float64
	for _, n := range []int{8, 16, 32} {
		ms := []*matrix.Dense{matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.Random(n, n, rng)}
		_, terms := matrix.RandomRank(n, n, 1, rng)
		factored, _ := fig6Mul("F-IVM", ms, terms)
		listed, _ := fig6Mul("F-IVM listed", ms, terms)
		ratio := float64(listed) / float64(factored)
		t.Logf("n=%d: factored %d, listed %d Mul, ratio %.1f", n, factored, listed, ratio)
		if factored > int64(8*n*n) || listed < int64(n*n*n) {
			t.Errorf("n=%d: factored %d Mul (want O(n²), ≤ %d), listed %d (want O(n³), ≥ %d)", n, factored, 8*n*n, listed, n*n*n)
		}
		if prev > 0 && ratio < 1.9*prev {
			t.Errorf("n=%d: listed/factored %.1f does not double from %.1f", n, ratio, prev)
		}
		prev = ratio
	}
}

// TestFig6Right: F-IVM's rank-r update grows with r, re-evaluation's does
// not.
func TestFig6Right(t *testing.T) {
	tb := Fig6Right(tiny())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[1][1] == tb.Rows[0][1] || tb.Rows[1][4] != tb.Rows[0][4] {
		t.Errorf("F-IVM must grow with the rank and RE-EVAL not:\n%s", tb.Format())
	}
}

// TestFig7RetailerShape: the paper's view counts, and floats per tuple
// F-IVM ≤ DBT-RING ≤ 1-IVM; µ keeps F-IVM ONE at 4 views, which an exact
// floats count pins. DBT's views are counted without running its 990
// hierarchies, the package's slowest run.
func TestFig7RetailerShape(t *testing.T) {
	cfg := tiny()
	cfg.Scalar = false
	ds := datasets.GenRetailer(cfg.Retailer)
	oneIVM := newCofactorStrategies(ds, false).scenario("1-IVM", nil)(1) // over scalarStream
	runs := byName(append(fig7Runs(cfg, ds), oneIVM))
	dbt, err := ivm.NewMultiRecursive(ds.Query, ring.Float{}, ivm.CofactorAggSpecs(ds.Query.Vars()), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Paper view counts: F-IVM 9, DBT-RING 13, 1-IVM 995; DBT here 990 × 13
	// (the paper's DBT shares views across aggregates: 3 814).
	if got := dbt.ViewCount(); got != 12870 {
		t.Errorf("DBT views = %d, want 12870", got)
	}
	for name, want := range map[string]int{"F-IVM": 9, "DBT-RING": 13, "1-IVM": 995, "F-IVM ONE": 4} {
		if got := runs[name].Views; got != want {
			t.Errorf("%s views = %d, want %d", name, got, want)
		}
	}
	_, f := runs["F-IVM"].PerTuple()
	_, d := runs["DBT-RING"].PerTuple()
	_, o := runs["1-IVM"].PerTuple()
	if !(f <= d && d <= o) {
		t.Errorf("floats per tuple F-IVM %.1f, DBT-RING %.1f, 1-IVM %.1f: want F-IVM ≤ DBT-RING ≤ 1-IVM", f, d, o)
	}
	// Materializing every view would touch 365.7 floats per tuple here.
	if one := runs["F-IVM ONE"]; one.Work.Floats != 46396 || one.Tuples != 128 {
		t.Errorf("F-IVM ONE: %d floats over %d tuples, want 46396 (362.5 per tuple) over 128", one.Work.Floats, one.Tuples)
	}
}

func TestFig7Housing(t *testing.T) {
	cfg := tiny()
	cfg.Scalar = false
	// Paper: 7 views for F-IVM on Housing (star join).
	if got := byName(fig7Runs(cfg, datasets.GenHousing(cfg.Housing)))["F-IVM"].Views; got != 7 {
		t.Errorf("F-IVM views = %d, want 7", got)
	}
}

func TestFig7AutoOrderRuns(t *testing.T) {
	cfg := tiny()
	cfg.Scalar, cfg.AutoOrder = false, true
	// The optimizer reproduces the paper's 9-view order on Retailer.
	if got := byName(fig7Runs(cfg, datasets.GenRetailer(cfg.Retailer)))["F-IVM"].Views; got != 9 {
		t.Errorf("auto-order F-IVM views = %d, want 9", got)
	}
}

func TestFig8RetailerRuns(t *testing.T) {
	if tb := Fig8Retailer(tiny()); len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

// TestFig8HousingShape: from Housing scale 1 to 3 both listings grow 27×
// (cubically, as datasets.HousingConfig documents) and the factorized
// payloads at most 3× (linearly).
func TestFig8HousingShape(t *testing.T) {
	cfg := tiny()
	cfg.Housing.Postcodes = 15
	if tb := Fig8Housing(cfg); len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var sizes [2][]int64
	for i, scale := range []int{1, 3} {
		ds := datasets.GenHousing(datasets.HousingConfig{Postcodes: 15, Scale: scale, Seed: 2})
		for _, mode := range fig8Modes {
			r, _ := fig8Run(mode, ds, nil, datasets.RoundRobinStream(ds, ds.Query.RelNames(), 30))
			sizes[i] = append(sizes[i], r.SizeValues())
		}
	}
	for i, mode := range fig8Modes {
		growth := float64(sizes[1][i]) / float64(sizes[0][i])
		if cubic := mode != factorized.FactPayloads; cubic && growth < 26 || !cubic && growth > 3 {
			t.Errorf("%s: %d → %d values from scale 1 to 3 (%.1f×)", mode, sizes[0][i], sizes[1][i], growth)
		}
	}
}

func TestFig11Runs(t *testing.T) {
	tables := Fig11(tiny())
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 5 {
			t.Fatalf("rows = %d, want 5", len(tb.Rows))
		}
	}
}

func TestFig12Runs(t *testing.T) {
	// 3 datasets × 3 strategies.
	if tb := Fig12(tiny()); len(tb.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tb.Rows))
	}
}

// TestFig12BatchesShareWork: on Housing at scale 4, F-IVM's Mul per tuple at
// batches of 1 000 is at most that at single-tuple batches (9.3 against 6.2).
// Over a round-robin stream the batch size also changes the order in which
// the relations fill, so the updates to House alone, into a database holding
// the others, isolate what batching saves: the houses of a postcode merge
// before they meet its siblings (16 against 11.5 per tuple).
func TestFig12BatchesShareWork(t *testing.T) {
	ds := datasets.GenHousing(datasets.HousingConfig{Postcodes: 30, Scale: 4, Seed: 2})
	runs := fig12Runs(ds, "F-IVM", []int{1, 1000})
	one, _ := runs[0].PerTuple()
	big, _ := runs[1].PerTuple()
	if big > one {
		t.Errorf("round robin: Mul per tuple %.2f at batch 1000, %.2f at batch 1", big, one)
	}
	cs := newCofactorStrategies(ds, false)
	var mul [2]int64
	for i, bs := range []int{1, 1000} {
		mul[i] = runScenarios(1, cs.scenario("F-IVM ONE", datasets.SingleRelationStream(ds, ds.Largest, bs)))[0].Work.Mul
	}
	if mul[1] >= mul[0] {
		t.Errorf("House alone: %d Mul at batch 1000, %d at batch 1; want fewer", mul[1], mul[0])
	}
}

// TestQHierarchicalConstantWork: Housing's star join is q-hierarchical
// (Berkholz, Keppeler & Schweikardt, PODS 2017), so a single-tuple update to
// House costs F-IVM the same ring multiplications, 16, at every scale. (Its
// floats grow a little with the payloads' variables; Mul is what is
// constant.)
func TestQHierarchicalConstantWork(t *testing.T) {
	for _, scale := range []int{1, 4} {
		ds := datasets.GenHousing(datasets.HousingConfig{Postcodes: 30, Scale: scale, Seed: 2})
		cs := newCofactorStrategies(ds, false)
		r := runScenarios(1, cs.scenario("F-IVM ONE", datasets.SingleRelationStream(ds, ds.Largest, 1)))[0]
		if r.Tuples != 30*scale || r.Work.Mul != int64(16*r.Tuples) {
			t.Errorf("scale %d: %d Mul over %d single-tuple updates, want 16 each", scale, r.Work.Mul, r.Tuples)
		}
	}
}

func TestFig13Runs(t *testing.T) {
	if tb := Fig13(tiny()); len(tb.Rows) != 5 {
		t.Fatalf("strategies = %d, want 5", len(tb.Rows))
	}
}

// TestTriangleIndicatorShape: without indicators the view at C grows with the
// pairs of S ⋈ T; with ∃_{A,B} R below it, it stays within |R|. Both count
// the same triangles.
func TestTriangleIndicatorShape(t *testing.T) {
	if tb := TriangleIndicator(tiny()); len(tb.Rows) != 2 || tb.Rows[0][1] != tb.Rows[1][1] {
		t.Fatalf("triangle counts differ or rows missing:\n%s", tb.Format())
	}
	var plainVC []int
	for _, edges := range []int{400, 800} {
		tw := datasets.TwitterConfig{Users: 100, Edges: edges, Seed: 3}
		plain, ind := runTriangle(tw, 100, false), runTriangle(tw, 100, true)
		if plain.count != ind.count || ind.vc > ind.r {
			t.Errorf("%d edges: triangles %d and %d, |V@C| %d with indicators against |R| %d", edges, plain.count, ind.count, ind.vc, ind.r)
		}
		plainVC = append(plainVC, plain.vc)
	}
	// 183 → 763 pairs of S ⋈ T when the edges double.
	if float64(plainVC[1]) < 3.5*float64(plainVC[0]) {
		t.Errorf("|V@C| without indicators %d → %d when the edges double, want ≥ 3.5×", plainVC[0], plainVC[1])
	}
}

func TestAutoOrderAblationShape(t *testing.T) {
	tables := AutoOrder(tiny())
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 3 {
			t.Fatalf("%s: rows = %d, want 3", tb.Title, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			if row[len(row)-1] != "ok" {
				t.Errorf("%s: %s status %s", tb.Title, row[0], row[len(row)-1])
			}
		}
	}
	// The optimizer chooses the paper's handpicked orders.
	cfg := tiny()
	for _, ds := range []*datasets.Dataset{datasets.GenRetailer(cfg.Retailer), datasets.GenHousing(cfg.Housing), datasets.GenTwitter(cfg.Twitter)} {
		chosen, err := vorder.Choose(ds.Query, vorder.NewCostModel(ds.Query, analyze(ds), nil))
		if err != nil {
			t.Fatal(err)
		}
		hand := ds.NewOrder()
		if err := errors.Join(hand.Prepare(ds.Query), chosen.Prepare(ds.Query)); err != nil {
			t.Fatal(err)
		}
		if hand.String() != chosen.String() {
			t.Errorf("%s: chosen %s, handpicked %s", ds.Name, chosen, hand)
		}
	}
}

// statsBits renders what a collector gives the optimizer, per relation of
// rels: cardinality, delta count and each column's distinct estimate, bit for
// bit; and the delta count over all relations.
func statsBits(st *data.Stats, rels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total deltas=%d\n", st.TotalDeltaTuples())
	for _, rel := range rels {
		rs := st.Lookup(rel)
		if rs == nil {
			fmt.Fprintf(&b, "%s untracked\n", rel)
			continue
		}
		fmt.Fprintf(&b, "%s live=%d deltas=%d", rel, rs.Live, rs.DeltaTuples)
		for _, col := range rs.Schema {
			fmt.Fprintf(&b, " %s=%x", col, math.Float64bits(rs.Distinct(col)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestAutoOrderScenarioLeavesAnalyzeAlone: the auto-order F-IVM scenario
// plans from the ANALYZE collector and writes nothing into it, so the scenarios after it (F-IVM ONE clones it) plan from
// the statistics analyze computed, whatever ran before them.
func TestAutoOrderScenarioLeavesAnalyzeAlone(t *testing.T) {
	cfg := tiny()
	ds := datasets.GenRetailer(cfg.Retailer)
	cs := newCofactorStrategies(ds, true)
	want := statsBits(cs.stats, ds.Query.RelNames())
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 20)[:10]
	res := runScenarios(1, cs.scenario("F-IVM", stream))[0]
	if res.Err != nil || res.Tuples == 0 {
		t.Fatalf("scenario ran %d tuples, error %v", res.Tuples, res.Err)
	}
	if got := statsBits(cs.stats, ds.Query.RelNames()); got != want {
		t.Errorf("the run wrote the ANALYZE collector:\n got  %s want %s", got, want)
	}
}

func TestExplainReportRuns(t *testing.T) {
	ds := datasets.GenTwitter(tiny().Twitter)
	for _, auto := range []bool{false, true} {
		s := ExplainReport(ds, auto)
		for _, frag := range []string{"order:", "width:", "estimated cost:", "views"} {
			if !strings.Contains(s, frag) {
				t.Errorf("explain(auto=%v) missing %q:\n%s", auto, frag, s)
			}
		}
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tb.AddRow("x", 42)
	tb.AddRow(1.5, "y")
	s := tb.Format()
	for _, frag := range []string{"== T ==", "a", "bb", "42", "1.5"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Format missing %q:\n%s", frag, s)
		}
	}
}

// TestFormatHelpers covers the per-tuple rates and the renderings the
// tables share.
func TestFormatHelpers(t *testing.T) {
	r := RunResult{Tuples: 4}
	r.Work.Mul, r.Work.Floats = 10, 30
	if mul, floats := r.PerTuple(); mul != 2.5 || floats != 7.5 {
		t.Errorf("PerTuple = %v, %v", mul, floats)
	}
	if oneDecimal(2.5) != "2.5" {
		t.Error("oneDecimal")
	}
	if mul, _ := (RunResult{}).PerTuple(); mul != 0 {
		t.Error("an empty run reads 0 per tuple")
	}
}
