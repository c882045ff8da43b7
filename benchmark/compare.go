package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per end-to-end metric and workload, the medians of two
// result files' untraced runs, their relative difference in the metric's
// worse direction, the bound, and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	regressed   it is
//	unresolved  either file's quartile spread is wider than the bound, so
//	            the comparison cannot tell (not for setup_s, whose spread
//	            the driver leaves out too: a set-up is short)
//	reported    the metric has no bound on this workload (see reportedBounds)
//
// The exit status is 0 only if every row with a bound is ok.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadRuns(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRuns(pathB); err == nil {
			return compareRuns(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// loadRuns returns workload → metric → the values of the file's untraced runs.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	runs := map[string]map[string][]float64{}
	for _, rec := range recs {
		if rec.Env.Trace {
			continue // end-to-end metrics are compared untraced
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, nil
}

func compareRuns(w io.Writer, a, b map[string]map[string][]float64) int {
	status := 0
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spr a", "spr b", "bound", "verdict")
	for _, wl := range workloads {
		for _, list := range [][]metricDef{endToEnd, reportedOnly} {
			for _, m := range list {
				va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				var worse float64 // a staleness median is 0 on an idle follower
				if ma != 0 {
					worse = (mb - ma) / ma
				}
				if m.Better == higher {
					worse = -worse
				}
				sa, sb := quartileSpread(va), quartileSpread(vb)
				bound, bounded := boundOf(m.Name, wl.name)
				verdict, boundCol := "reported", "     -"
				if bounded {
					verdict, boundCol = "ok", fmt.Sprintf("%5.0f%%", 100*bound)
					switch {
					case (sa > bound || sb > bound) && m.Name != "setup_s":
						verdict = "unresolved"
					case worse > bound:
						verdict = "regressed"
					}
					if verdict != "ok" {
						status = 1
					}
				}
				fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %s  %s\n",
					wl.name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, boundCol, verdict)
			}
		}
	}
	return status
}
