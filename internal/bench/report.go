package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// ReportSchema identifies the BENCH JSON layout; bump on breaking changes so
// benchdiff refuses to compare incompatible files.
const ReportSchema = "fivm-bench/v1"

// Report is the machine-readable benchmark artifact (BENCH_*.json at the
// repo root): per-scenario maintenance results plus hot-path microbenchmark
// numbers, with enough environment metadata to judge comparability.
type Report struct {
	Schema    string `json:"schema"`
	CreatedAt string `json:"created_at,omitempty"`
	Go        string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	Scenarios []ScenarioResult `json:"scenarios"`
	Micro     []MicroResult    `json:"micro"`
}

// ScenarioResult is one (scenario, case) row: a maintenance strategy driven
// through a stream, or one side of the multiview experiment.
type ScenarioResult struct {
	// Scenario is the experiment family: fig7, fig13, mixed, multiview.
	Scenario string `json:"scenario"`
	// Case identifies the run within the scenario (strategy or mode name).
	Case    string `json:"case"`
	Batch   int    `json:"batch,omitempty"`
	Group   int    `json:"group,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Readers int    `json:"readers,omitempty"`
	Views   int    `json:"views,omitempty"`

	Tuples        int     `json:"tuples"`
	ThroughputTPS float64 `json:"throughput_tps"`
	P50BatchNs    int64   `json:"p50_batch_ns,omitempty"`
	P99BatchNs    int64   `json:"p99_batch_ns,omitempty"`
	// PeakMemBytes is the maintainer's own accounting of materialized state;
	// PeakRSSBytes is the process-level high-water mark sampled from
	// runtime.ReadMemStats (Sys: bytes obtained from the OS) after the run.
	PeakMemBytes int    `json:"peak_mem_bytes,omitempty"`
	PeakRSSBytes uint64 `json:"peak_rss_bytes,omitempty"`
	// ReaderOpsPerSec is the aggregate snapshot-reader throughput of mixed
	// runs (zero elsewhere).
	ReaderOpsPerSec float64 `json:"reader_ops_per_sec,omitempty"`
	// StalenessP50Ns / StalenessP99Ns are replication-lag percentiles of the
	// serve scenario's follower: the delay between the primary publishing an
	// applied count and the follower publishing the same one (zero
	// elsewhere). StalenessSamples counts the batches both sides stamped;
	// those the follower published first are in the count and not in the
	// percentiles.
	StalenessP50Ns   int64  `json:"staleness_p50_ns,omitempty"`
	StalenessP99Ns   int64  `json:"staleness_p99_ns,omitempty"`
	StalenessSamples int    `json:"staleness_samples,omitempty"`
	Status           string `json:"status"`
}

// MicroResult is one hot-path microbenchmark measurement (see micro.go).
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// NewReport returns an empty report stamped with the current environment.
func NewReport() *Report {
	return &Report{
		Schema:    ReportSchema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads and validates a BENCH JSON file.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// DeltaSummary renders a per-row comparison of two reports as an aligned
// text table: every baseline scenario row (baseline → current tuples/s) and
// every microbenchmark (baseline → current ns/op), each with its relative
// change, followed by rows that exist only in the current report. Compare
// decides pass/fail; this is the context benchdiff prints alongside a clean
// verdict so improvements are visible, not just the absence of regressions.
func DeltaSummary(base, cur *Report) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "kind\tname\tbaseline\tcurrent\tdelta")
	delta := func(old, new float64, downIsBetter bool) string {
		if old <= 0 {
			return "n/a"
		}
		d := (new - old) / old * 100
		better := d < 0 == downIsBetter
		mark := ""
		if d != 0 && better {
			mark = " (better)"
		}
		return fmt.Sprintf("%+.1f%%%s", d, mark)
	}

	curScen := make(map[string]ScenarioResult, len(cur.Scenarios))
	for _, s := range cur.Scenarios {
		curScen[s.Scenario+"/"+s.Case] = s
	}
	seen := make(map[string]bool, len(base.Scenarios))
	for _, old := range base.Scenarios {
		key := old.Scenario + "/" + old.Case
		seen[key] = true
		now, ok := curScen[key]
		switch {
		case !ok:
			fmt.Fprintf(w, "scenario\t%s\t%.0f tps\tmissing\t\n", key, old.ThroughputTPS)
		case old.Status != "ok" || now.Status != "ok":
			fmt.Fprintf(w, "scenario\t%s\t%s\t%s\t\n", key, old.Status, now.Status)
		default:
			fmt.Fprintf(w, "scenario\t%s\t%.0f tps\t%.0f tps\t%s\n",
				key, old.ThroughputTPS, now.ThroughputTPS, delta(old.ThroughputTPS, now.ThroughputTPS, false))
		}
	}
	for _, s := range cur.Scenarios {
		if key := s.Scenario + "/" + s.Case; !seen[key] {
			fmt.Fprintf(w, "scenario\t%s\t—\t%.0f tps\tnew\n", key, s.ThroughputTPS)
		}
	}

	curMicro := make(map[string]MicroResult, len(cur.Micro))
	for _, m := range cur.Micro {
		curMicro[m.Name] = m
	}
	seenMicro := make(map[string]bool, len(base.Micro))
	for _, old := range base.Micro {
		seenMicro[old.Name] = true
		now, ok := curMicro[old.Name]
		if !ok {
			fmt.Fprintf(w, "micro\t%s\t%.2f ns/op\tmissing\t\n", old.Name, old.NsPerOp)
			continue
		}
		fmt.Fprintf(w, "micro\t%s\t%.2f ns/op\t%.2f ns/op\t%s\n",
			old.Name, old.NsPerOp, now.NsPerOp, delta(old.NsPerOp, now.NsPerOp, true))
	}
	for _, m := range cur.Micro {
		if !seenMicro[m.Name] {
			fmt.Fprintf(w, "micro\t%s\t—\t%.2f ns/op\tnew\n", m.Name, m.NsPerOp)
		}
	}

	w.Flush()
	return b.String()
}

// readersStarved reports whether a scenario row that was configured with
// concurrent readers recorded essentially no reader progress: aggregate
// reader ops/s below 1% of the write throughput, when the read path is a
// busy loop that normally sustains orders of magnitude more. On small hosts
// (CI runs on 1-2 CPUs) the scheduler sometimes never runs the readers
// before a short stream drains; such a rep measures write-only throughput,
// not the mixed workload, and its (inflated) number is only comparable to
// another run that starved the same way.
func readersStarved(r ScenarioResult) bool {
	return r.Readers > 0 && r.ReaderOpsPerSec < r.ThroughputTPS/100
}

// Regression is one comparison finding between two reports.
type Regression struct {
	Kind   string // "scenario" or "micro"
	Name   string // "scenario/case" or micro name
	Metric string // "throughput_tps", "ns_per_op", "bytes_per_op", "allocs_per_op", "missing"
	Old    float64
	New    float64
	// Ratio is new/old for cost metrics and old/new for throughput, so > 1
	// always means "worse by that factor".
	Ratio float64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s %s: present in baseline, missing in new report", r.Kind, r.Name)
	}
	return fmt.Sprintf("%s %s: %s %.4g -> %.4g (%.2fx worse)", r.Kind, r.Name, r.Metric, r.Old, r.New, r.Ratio)
}

// Compare diffs two reports and returns the regressions in cur relative to
// base: scenario throughput drops, microbenchmark ns/op and bytes/op
// increases beyond threshold (a fraction: 0.10 flags >10% changes), and any
// allocs/op increase at all — allocation counts are deterministic, so they
// get no noise allowance. Bytes/op is near-deterministic but pooled paths
// (arena block growth, map rehashes) amortize one-time costs across ops, so
// it shares the ns/op noise threshold rather than the exact-match rule.
// Entries present only in cur (new benchmarks) are fine; entries present
// only in base are reported as missing. Timed-out or errored baseline
// scenarios are skipped: their throughput is not a meaningful bar. A
// reader-configured scenario where exactly one of the two runs starved its
// readers (see readersStarved) is likewise skipped — the two numbers
// measure different workloads, so neither bounds the other.
func Compare(base, cur *Report, threshold float64) []Regression {
	var regs []Regression

	scen := make(map[string]ScenarioResult, len(cur.Scenarios))
	for _, s := range cur.Scenarios {
		scen[s.Scenario+"/"+s.Case] = s
	}
	for _, old := range base.Scenarios {
		key := old.Scenario + "/" + old.Case
		if old.Status != "ok" || old.ThroughputTPS <= 0 {
			continue
		}
		now, ok := scen[key]
		if !ok {
			regs = append(regs, Regression{Kind: "scenario", Name: key, Metric: "missing"})
			continue
		}
		if now.Status != "ok" {
			regs = append(regs, Regression{Kind: "scenario", Name: key, Metric: "throughput_tps",
				Old: old.ThroughputTPS, New: 0, Ratio: 0})
			continue
		}
		if readersStarved(old) != readersStarved(now) {
			continue
		}
		if now.ThroughputTPS < old.ThroughputTPS*(1-threshold) {
			regs = append(regs, Regression{Kind: "scenario", Name: key, Metric: "throughput_tps",
				Old: old.ThroughputTPS, New: now.ThroughputTPS, Ratio: old.ThroughputTPS / now.ThroughputTPS})
		}
	}

	micro := make(map[string]MicroResult, len(cur.Micro))
	for _, m := range cur.Micro {
		micro[m.Name] = m
	}
	for _, old := range base.Micro {
		now, ok := micro[old.Name]
		if !ok {
			regs = append(regs, Regression{Kind: "micro", Name: old.Name, Metric: "missing"})
			continue
		}
		if old.NsPerOp > 0 && now.NsPerOp > old.NsPerOp*(1+threshold) {
			regs = append(regs, Regression{Kind: "micro", Name: old.Name, Metric: "ns_per_op",
				Old: old.NsPerOp, New: now.NsPerOp, Ratio: now.NsPerOp / old.NsPerOp})
		}
		if old.BytesPerOp > 0 && float64(now.BytesPerOp) > float64(old.BytesPerOp)*(1+threshold) {
			regs = append(regs, Regression{Kind: "micro", Name: old.Name, Metric: "bytes_per_op",
				Old: float64(old.BytesPerOp), New: float64(now.BytesPerOp),
				Ratio: float64(now.BytesPerOp) / float64(old.BytesPerOp)})
		}
		if now.AllocsPerOp > old.AllocsPerOp {
			ratio := float64(now.AllocsPerOp + 1) // old may be 0
			if old.AllocsPerOp > 0 {
				ratio = float64(now.AllocsPerOp) / float64(old.AllocsPerOp)
			}
			regs = append(regs, Regression{Kind: "micro", Name: old.Name, Metric: "allocs_per_op",
				Old: float64(old.AllocsPerOp), New: float64(now.AllocsPerOp), Ratio: ratio})
		}
	}

	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Kind != regs[j].Kind {
			return regs[i].Kind < regs[j].Kind
		}
		return regs[i].Name < regs[j].Name
	})
	return regs
}
