package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeParams runs a workload at 1/100 scale: a dataset of two dates, a few
// cycles or a few hundred requests. The tests assert on counts, sample counts
// and the shape of the output, never on a measured time.
func smokeParams(t *testing.T, trace bool) params {
	return params{seed: 7, seconds: 0.02, scale: 0.01, trace: trace, outDir: t.TempDir()}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := smokeParams(t, true)
			rec, err := runWorkload(w, p, environment{Seed: p.seed, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("failed ops: %d of %d: %v", rec.Failed, rec.Attempted, rec.Notes)
			}
			if rec.Attempted < 1 || len(rec.InputSHA256) != 64 {
				t.Fatalf("attempted %d, input hash %q", rec.Attempted, rec.InputSHA256)
			}
			if rec.Counts["tuples"] < 1 || rec.Counts["batches"] < 1 {
				t.Fatalf("counts %v", rec.Counts)
			}
			// An open-loop writer at 50 requests a second may not get a second
			// one in before a reader this short is done.
			if rec.Samples["batch_p50_ms"] < 1 && w.name != "serve-read-heavy" {
				t.Fatalf("samples %v", rec.Samples)
			}
			if strings.HasPrefix(w.name, "serve-") {
				if rec.Samples["lookup_p50_us"] < 1 || rec.Samples["follower_staleness_p50_ms"] < 1 {
					t.Fatalf("samples %v", rec.Samples)
				}
				if rec.Counts["replica_frames"] != rec.Counts["batches"] {
					t.Fatalf("frames shipped %d, batches %d", rec.Counts["replica_frames"], rec.Counts["batches"])
				}
			}
			if _, err := os.Stat(filepath.Join(p.outDir, "trace-"+w.name+".json")); err != nil {
				t.Fatal(err)
			}

			// The driver's line: exactly the four keys, and under tracing
			// exactly the per-layer metrics, each with its unit.
			line, err := driverLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int64                 `json:"attempted"`
				Failed    *int64                 `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Correct == nil || out.Attempted == nil || out.Failed == nil || len(out.Metrics) != len(perLayer) {
				t.Fatalf("driver line %s", line)
			}
			for _, m := range perLayer {
				if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Fatalf("metric %s: %+v", m.Name, got)
				}
			}
			rec.Env.Trace = false
			line, err = driverLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			out.Metrics = nil
			if err := json.Unmarshal(line, &out); err != nil || len(out.Metrics) != len(endToEnd) {
				t.Fatalf("untraced driver line %s: %v", line, err)
			}
		})
	}
}

// sameWork are the counts of an in-process run that do not depend on how many
// cycles the box's speed let it do.
func sameWork(rec *record) map[string]int64 {
	out := map[string]int64{}
	for _, k := range []string{"tuples_per_cycle", "batches_per_cycle", "lift_calls"} {
		out[k] = rec.Counts[k]
	}
	return out
}

// TestDeterminism: the seed is the only input, so two runs of an in-process
// workload with equal arguments see the same inputs and do the same work in
// every cycle.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads[:2] {
		a, err := runWorkload(w, smokeParams(t, false), environment{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, smokeParams(t, false), environment{})
		if err != nil {
			t.Fatal(err)
		}
		if a.InputSHA256 != b.InputSHA256 || !reflect.DeepEqual(sameWork(a), sameWork(b)) || a.Counts["tuples_per_cycle"] < 1 {
			t.Fatalf("%s: %s %v, then %s %v", w.name, a.InputSHA256, a.Counts, b.InputSHA256, b.Counts)
		}
		other := smokeParams(t, false)
		other.seed++
		c, err := runWorkload(w, other, environment{})
		if err != nil {
			t.Fatal(err)
		}
		if c.InputSHA256 == a.InputSHA256 {
			t.Fatalf("%s: seeds %d and %d give the same inputs", w.name, other.seed-1, other.seed)
		}
	}
}

// TestManifest: BENCHMARK.json at the repository root is what manifest.go
// renders, and respects the limits the driver puts on it.
func TestManifest(t *testing.T) {
	want := manifestJSON()
	if got, err := os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Log("no ../BENCHMARK.json to compare with:", err)
	} else if !bytes.Equal(got, want) {
		path := filepath.Join("out", "BENCHMARK.json.want") // benchmark/out is git-ignored
		if err := os.MkdirAll("out", 0o755); err == nil {
			err = os.WriteFile(path, want, 0o644)
		}
		t.Fatalf("BENCHMARK.json differs from what manifest.go renders (written to benchmark/%s: %v)", path, err)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Fatalf("%s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Fatal("no setup_s")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Fatalf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	for name, m := range metricByName {
		if len(name) > 64 || len(m.Unit) > 16 || (m.Better != lower && m.Better != higher) {
			t.Fatalf("metric %+v", m)
		}
	}
}

func TestCompare(t *testing.T) {
	// alloc_kib_per_op is bounded; ingest_tuples_per_s has no bound on this
	// workload and must not decide the status whatever it does.
	runs := func(scale float64, spread float64) map[string]map[string][]float64 {
		vs, wild := make([]float64, 10), make([]float64, 10)
		for i := range vs {
			vs[i] = scale * (1 + spread*float64(i-5)/10)
			wild[i] = scale * float64(1+i)
		}
		return map[string]map[string][]float64{"cofactor-stream": {"alloc_kib_per_op": vs, "ingest_tuples_per_s": wild}}
	}
	for _, tc := range []struct {
		name    string
		b       map[string]map[string][]float64
		status  int
		verdict string
	}{
		{"same", runs(100, 0.01), 0, " ok"},
		{"faster", runs(60, 0.01), 0, " ok"},
		{"slower", runs(140, 0.01), 1, "regressed"},
		{"noisy", runs(100, 0.9), 1, "unresolved"},
	} {
		var out bytes.Buffer
		status := compareRuns(&out, runs(100, 0.01), tc.b)
		if status != tc.status || !strings.Contains(out.String(), tc.verdict) || !strings.Contains(out.String(), "reported") {
			t.Errorf("%s: status %d\n%s", tc.name, status, out.String())
		}
	}
}
