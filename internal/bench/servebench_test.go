package bench

import (
	"testing"
	"time"

	"fivm/internal/datasets"
)

// TestServeBenchRows runs the serve scenario at tiny scale and checks the
// report rows: all four cases present, ok, with positive throughput, and a
// staleness distribution with a sample for at least every other batch — a
// count, not a wall-clock value: on a small stream the follower, which
// maintains one view of the primary's two, may publish a batch first.
func TestServeBenchRows(t *testing.T) {
	cfg := ServeBenchConfig{
		Retailer:   datasets.RetailerConfig{Locations: 3, Dates: 6, Items: 12, ItemsPerLocDate: 3, Seed: 7},
		BatchSize:  50,
		Readers:    2,
		ReadWindow: 50 * time.Millisecond,
	}
	rows := ServeBench(cfg)
	want := map[string]bool{"ingest": false, "http-lookup": false, "http-scan": false, "follower-staleness": false}
	for _, r := range rows {
		if r.Scenario != "serve" {
			t.Fatalf("scenario = %q, want serve", r.Scenario)
		}
		if _, ok := want[r.Case]; !ok {
			t.Fatalf("unexpected case %q", r.Case)
		}
		want[r.Case] = true
		if r.Status != "ok" {
			t.Fatalf("case %s status = %q", r.Case, r.Status)
		}
		if r.ThroughputTPS <= 0 {
			t.Fatalf("case %s throughput = %v, want > 0", r.Case, r.ThroughputTPS)
		}
		if r.Tuples <= 0 {
			t.Fatalf("case %s tuples = %d, want > 0", r.Case, r.Tuples)
		}
	}
	for c, seen := range want {
		if !seen {
			t.Fatalf("missing case %q", c)
		}
	}
	ds := datasets.GenRetailer(cfg.Retailer)
	batches := len(datasets.RoundRobinStream(ds, ds.Query.RelNames(), cfg.BatchSize))
	for _, r := range rows {
		if r.Case != "follower-staleness" {
			continue
		}
		t.Logf("staleness: %d samples over %d batches, p50 %d ns, p99 %d ns", r.StalenessSamples, batches, r.StalenessP50Ns, r.StalenessP99Ns)
		if batches == 0 || r.StalenessSamples < (batches+1)/2 {
			t.Fatalf("staleness: %d samples over %d batches, want at least half", r.StalenessSamples, batches)
		}
	}
}
