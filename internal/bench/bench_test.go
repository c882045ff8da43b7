package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"fivm/internal/data"
	"fivm/internal/datasets"
	"fivm/internal/ivm"
	"fivm/internal/ring"
)

// The experiment functions are exercised at tiny scale so `go test ./...`
// regenerates every figure end to end; shape assertions check the paper's
// qualitative claims where they are robust at small scale.

func tinyFig6() Fig6Config {
	return Fig6Config{Ns: []int{8, 16}, N: 24, Ranks: []int{1, 4}, Updates: 2, Seed: 1}
}

func TestFig6Left(t *testing.T) {
	tb := Fig6Left(tinyFig6())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Title, "Figure 6") {
		t.Error("title")
	}
}

func TestFig6Right(t *testing.T) {
	tb := Fig6Right(tinyFig6())
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func tinyRetailer() datasets.RetailerConfig {
	return datasets.RetailerConfig{Locations: 4, Dates: 8, Items: 20, ItemsPerLocDate: 4, Seed: 1}
}

func tinyHousing() datasets.HousingConfig {
	return datasets.HousingConfig{Postcodes: 30, Scale: 1, Seed: 2}
}

func tinyTwitter() datasets.TwitterConfig {
	return datasets.TwitterConfig{Users: 40, Edges: 240, Seed: 3}
}

func TestFig7RetailerShape(t *testing.T) {
	cfg := Fig7Config{
		Dataset:       "retailer",
		BatchSize:     50,
		Timeout:       2 * time.Second,
		Retailer:      tinyRetailer(),
		IncludeScalar: true,
	}
	tables := Fig7(cfg)
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	sum := tables[0]
	views := map[string]string{}
	for _, row := range sum.Rows {
		views[row[0]] = row[1]
	}
	// Paper view counts: F-IVM 9, DBT-RING 13, 1-IVM 995.
	if views["F-IVM"] != "9" {
		t.Errorf("F-IVM views = %s, want 9", views["F-IVM"])
	}
	if views["DBT-RING"] != "13" {
		t.Errorf("DBT-RING views = %s, want 13", views["DBT-RING"])
	}
	if views["1-IVM"] != "995" {
		t.Errorf("1-IVM views = %s, want 995", views["1-IVM"])
	}
}

func TestFig7Housing(t *testing.T) {
	cfg := Fig7Config{
		Dataset:       "housing",
		BatchSize:     50,
		Timeout:       2 * time.Second,
		Housing:       tinyHousing(),
		IncludeScalar: false,
	}
	tables := Fig7(cfg)
	sum := tables[0]
	views := map[string]string{}
	for _, row := range sum.Rows {
		views[row[0]] = row[1]
	}
	// Paper: 7 views for F-IVM on Housing (star join).
	if views["F-IVM"] != "7" {
		t.Errorf("F-IVM views = %s, want 7", views["F-IVM"])
	}
}

func TestFig8RetailerRuns(t *testing.T) {
	cfg := DefaultFig8("retailer")
	cfg.Retailer = tinyRetailer()
	cfg.BatchSize = 30
	cfg.Timeout = 2 * time.Second
	tables := Fig8Retailer(cfg)
	if len(tables) != 3 || len(tables[0].Rows) != 3 {
		t.Fatalf("unexpected table shape")
	}
}

func TestFig8HousingShape(t *testing.T) {
	cfg := DefaultFig8("housing")
	cfg.Housing = datasets.HousingConfig{Postcodes: 15, Scale: 1, Seed: 2}
	cfg.Scales = []int{1, 3}
	cfg.BatchSize = 30
	cfg.Timeout = 3 * time.Second
	tb := Fig8Housing(cfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig11Runs(t *testing.T) {
	cfg := Fig11Config{
		BatchSize: 50,
		Timeout:   2 * time.Second,
		Retailer:  tinyRetailer(),
		Housing:   tinyHousing(),
	}
	tb := Fig11(cfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig12Runs(t *testing.T) {
	cfg := Fig12Config{
		BatchSizes: []int{20, 100},
		Timeout:    2 * time.Second,
		Retailer:   tinyRetailer(),
		Housing:    tinyHousing(),
		Twitter:    tinyTwitter(),
	}
	tb := Fig12(cfg)
	// 3 datasets × 3 strategies.
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tb.Rows))
	}
}

func TestFig13Runs(t *testing.T) {
	cfg := Fig13Config{BatchSize: 50, Timeout: 2 * time.Second, Twitter: tinyTwitter(), IncludeScalar: true}
	tables := Fig13(cfg)
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	if len(tables[0].Rows) != 5 {
		t.Fatalf("strategies = %d, want 5", len(tables[0].Rows))
	}
}

func TestTriangleIndicatorShape(t *testing.T) {
	cfg := Fig13Config{BatchSize: 50, Timeout: 2 * time.Second, Twitter: tinyTwitter(), IncludeScalar: true}
	tb := TriangleIndicator(cfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Same triangle count in both variants.
	if tb.Rows[0][1] != tb.Rows[1][1] {
		t.Errorf("triangle counts differ: %s vs %s", tb.Rows[0][1], tb.Rows[1][1])
	}
}

func TestAutoOrderAblationShape(t *testing.T) {
	cfg := AutoOrderConfig{
		BatchSize: 50,
		Timeout:   2 * time.Second,
		Retailer:  tinyRetailer(),
		Housing:   tinyHousing(),
		Twitter:   tinyTwitter(),
	}
	tables := AutoOrder(cfg)
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
}

func TestFig7AutoOrderRuns(t *testing.T) {
	cfg := Fig7Config{
		Dataset:   "retailer",
		BatchSize: 50,
		Timeout:   2 * time.Second,
		Retailer:  tinyRetailer(),
		AutoOrder: true,
	}
	tables := Fig7(cfg)
	views := map[string]string{}
	for _, row := range tables[0].Rows {
		views[row[0]] = row[1]
	}
	// The optimizer reproduces the paper's 9-view order on Retailer.
	if views["F-IVM"] != "9" {
		t.Errorf("auto-order F-IVM views = %s, want 9", views["F-IVM"])
	}
}

// statsBits renders what a collector gives the optimizer, per relation:
// cardinality, delta count and each column's distinct estimate, bit for bit.
func statsBits(st *data.Stats) string {
	var b strings.Builder
	for _, rel := range st.Relations() {
		rs := st.Lookup(rel)
		fmt.Fprintf(&b, "%s live=%d deltas=%d", rel, rs.Live, rs.DeltaTuples)
		for _, col := range rs.Schema {
			fmt.Fprintf(&b, " %s=%x", col, math.Float64bits(rs.Distinct(col)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestAutoOrderScenarioLeavesAnalyzeAlone: the auto-order F-IVM scenario,
// sharded over two workers, plans from the ANALYZE collector and writes
// nothing into it, so the scenarios after it (F-IVM ONE clones it) plan from
// the statistics analyze computed, whatever ran before them.
func TestAutoOrderScenarioLeavesAnalyzeAlone(t *testing.T) {
	ds := datasets.GenRetailer(tinyRetailer())
	cs := newCofactorStrategies(ds.Query)
	cs.stats = analyze(ds)
	want := statsBits(cs.stats)
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 20)[:10]
	sc := strategy("F-IVM", ds, ring.Cofactor{}, 2,
		func() (ivm.Maintainer[ring.Triple], error) { return cs.FIVM(nil, nil) }, tripleDelta(ds.Query), stream)
	res := runScenarios([]scenario{sc}, RunOptions{Timeout: 2 * time.Second})
	if res[0].Status() != "ok" || res[0].Tuples == 0 {
		t.Fatalf("scenario ran %d tuples, status %s", res[0].Tuples, res[0].Status())
	}
	if got := statsBits(cs.stats); got != want {
		t.Errorf("the run wrote the ANALYZE collector:\n got  %s want %s", got, want)
	}
}

func TestExplainReportRuns(t *testing.T) {
	ds := datasets.GenTwitter(tinyTwitter())
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

func TestRunStreamSamplesAndTimeout(t *testing.T) {
	ds := datasets.GenHousing(tinyHousing())
	stream := datasets.RoundRobinStream(ds, ds.Query.RelNames(), 10)
	slow := loaderFunc{
		apply: func(b datasets.Batch) error { time.Sleep(2 * time.Millisecond); return nil },
	}
	res := RunStream("slow", slow, stream, RunOptions{Samples: 5, Timeout: 10 * time.Millisecond})
	if !res.TimedOut {
		t.Error("expected timeout")
	}
	if res.Tuples == 0 || res.Tuples >= ds.TotalTuples() {
		t.Errorf("partial progress expected, got %d", res.Tuples)
	}
	fast := loaderFunc{apply: func(b datasets.Batch) error { return nil }}
	res = RunStream("fast", fast, stream, RunOptions{Samples: 5})
	if res.TimedOut || res.Tuples != ds.TotalTuples() {
		t.Errorf("fast run: %+v", res)
	}
	if len(res.Points) == 0 {
		t.Error("no sample points")
	}
}

type loaderFunc struct {
	apply func(b datasets.Batch) error
}

func (l loaderFunc) ApplyBatches(bs []datasets.Batch) error {
	for _, b := range bs {
		if err := l.apply(b); err != nil {
			return err
		}
	}
	return nil
}
func (l loaderFunc) ViewCount() int   { return 0 }
func (l loaderFunc) MemoryBytes() int { return 0 }

func TestFormatHelpers(t *testing.T) {
	if fmtMem(512) != "512B" || !strings.Contains(fmtMem(2<<20), "MiB") {
		t.Error("fmtMem")
	}
	if !strings.Contains(fmtTput(2e6), "M/s") || !strings.Contains(fmtTput(50), "/s") {
		t.Error("fmtTput")
	}
	if !strings.Contains(fmtDur(2), "s") || !strings.Contains(fmtDur(2e-3), "ms") || !strings.Contains(fmtDur(2e-6), "µs") {
		t.Error("fmtDur")
	}
}
