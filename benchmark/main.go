// Command benchmark is the repository's one reproducible benchmark: four
// workloads over the whole engine, end-to-end metrics measured untraced, and a
// traced pass that attributes the time to layers. See README.md.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh                       # all four, untraced
//	bash benchmark/run.sh -trace 1 -out r.json  # all four, with the layer ledger
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// outDir holds what a run leaves behind: traces, and while it runs the WAL
// directories of the durable databases.
const outDir = "benchmark/out"

// params are the arguments of one workload run. scale shrinks the datasets;
// only the smoke tests set it below 1.
type params struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	outDir  string
}

// setups is how many times a run sets up, for the median: full times, twice
// in the smoke tests.
func (p params) setups(full int) int {
	if p.scale < 1 {
		return 2
	}
	return full
}

// result is what one workload run measured. A metric the workload does not
// have, or whose samples cannot support it, is absent.
type result struct {
	metrics      map[string]float64
	counts       map[string]int64 // exact counts: equal across runs with equal arguments
	samples      map[string]int   // per timing metric: how many samples it rests on
	sha          string
	timedSeconds float64
	attempted    int64
	failed       int64
	notes        []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, counts: map[string]int64{}, samples: map[string]int{}}
}

// set records a metric; the name must be one the manifest declares.
func (r *result) set(name string, v float64) {
	if _, ok := metricByName[name]; !ok {
		panic("benchmark: undeclared metric " + name)
	}
	r.metrics[name] = v
}

// minBeyond is how many samples a percentile must have beyond it to be
// reported (the choosing-metrics rule); the issue's 60 needs timed regions
// twice as long as the driver's cap on the run time allows.
const minBeyond = 10

// setPct records the q-quantile of a timing, in units of unitNs nanoseconds,
// and the sample count behind it. A tail percentile with fewer than minBeyond
// samples beyond it is left out: it would be one or two slow requests.
func (r *result) setPct(name string, l latencies, q, unitNs float64) {
	r.samples[name] = len(l)
	if len(l) == 0 || (q > 0.5 && float64(len(l))*(1-q) < minBeyond) {
		return
	}
	r.set(name, l.pct(q)/unitNs)
}

var processStart = time.Now()

// logf writes a progress line, stamped with the process's age, to standard
// error: where a run's wall time goes outside its timed region.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

// medianSetup runs setup n times, tearing all but the last down, and records
// the median duration: one set-up is too short to time steadily. setup_s is
// the process's CPU time (set-up spans several goroutines in the serve
// workloads), which leaves the neighbours of a shared box out; setup_wall_s is
// the same set-ups on the wall clock.
func medianSetup(r *result, n int, setup func() error, teardown func()) error {
	var cpu, wall []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		start, wallStart := processCPU(), time.Now()
		if err := setup(); err != nil {
			return err
		}
		cpu = append(cpu, (processCPU() - start).Seconds())
		wall = append(wall, time.Since(wallStart).Seconds())
	}
	r.set("setup_s", median(cpu))
	r.set("setup_wall_s", median(wall))
	return nil
}

// environment is the block every result file carries.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Commit     string  `json:"git_commit"`
	Trace      bool    `json:"trace"`
}

// gitCommit names the commit the run was built from, with a mark when the
// benchmark's own files differ from it.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--", "benchmark", "BENCHMARK.json").Output(); err == nil && len(st) > 0 {
		commit += "+uncommitted-benchmark"
	}
	return commit
}

// record is one workload run as written to a result file.
type record struct {
	Workload     string                 `json:"workload"`
	Env          environment            `json:"env"`
	InputSHA256  string                 `json:"input_sha256"`
	TimedSeconds float64                `json:"timed_seconds"`
	Correct      bool                   `json:"correct"`
	Attempted    int64                  `json:"attempted"`
	Failed       int64                  `json:"failed"`
	FailedShare  float64                `json:"failed_ops_share"`
	Counts       map[string]int64       `json:"counts"`
	Samples      map[string]int         `json:"samples"`
	Metrics      map[string]metricValue `json:"metrics"`
	Notes        []string               `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(w workload, p params, env environment) (*record, error) {
	debug.FreeOSMemory()
	res, err := w.run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Env: env, InputSHA256: res.sha, TimedSeconds: res.timedSeconds,
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		FailedShare: float64(res.failed) / float64(max(res.attempted, 1)),
		Counts:      res.counts, Samples: res.samples, Notes: res.notes,
		Metrics: map[string]metricValue{},
	}
	for name, v := range res.metrics {
		rec.Metrics[name] = metricValue{Value: v, Unit: metricByName[name].Unit}
	}
	return rec, nil
}

// driverLine is the last line of a single-workload run: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one. The driver wants
// every per-layer name on every workload; one the workload does not have
// reads 0 there.
func driverLine(rec *record) ([]byte, error) {
	list := endToEnd
	if rec.Env.Trace {
		list = perLayer
	}
	ms := make(map[string]metricValue, len(list))
	for _, m := range list {
		ms[m.Name] = metricValue{Value: rec.Metrics[m.Name].Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, ms})
}

func printRecord(rec *record) {
	fmt.Printf("== %s  seed=%d seconds=%g scale=%g trace=%v  input=%s\n", rec.Workload,
		rec.Env.Seed, rec.Env.Seconds, rec.Env.Scale, rec.Env.Trace, rec.InputSHA256[:12])
	fmt.Printf("   timed region %.2f s; attempted %d, failed %d (failed_ops_share %g)\n",
		rec.TimedSeconds, rec.Attempted, rec.Failed, rec.FailedShare)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("   %-38s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(rec.Samples) {
		fmt.Printf("   samples  %-29s %16d\n", k, rec.Samples[k])
		if _, reported := rec.Metrics[k]; !reported {
			fmt.Printf("   note: %s is not reported: fewer than %d samples beyond it\n", k, minBeyond)
		}
	}
	for _, k := range sortedKeys(rec.Counts) {
		fmt.Printf("   count    %-29s %16d\n", k, rec.Counts[k])
	}
	for _, n := range rec.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// appendRecords adds records to a result file: a JSON array of records, which
// is what -compare reads.
func appendRecords(path string, recs []*record) error {
	var all []*record
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all = append(all, recs...)
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 10, "length of the timed region the work is sized for")
		trace        = flag.Int("trace", 0, "1: also run the traced pass and report the per-layer metrics")
		out          = flag.String("out", "", "append the run's records to this result file")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	// The box has two cores; pin to them so the figures do not depend on a
	// container's CPU quota being visible to the runtime.
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	todo := workloads
	if *workloadName != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *workloadName })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		todo = workloads[i : i+1]
	}
	p := params{seed: *seed, seconds: *seconds, scale: 1, trace: *trace != 0, outDir: outDir}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOGC: gogc, Seed: p.seed, Seconds: p.seconds, Scale: p.scale, Commit: gitCommit(), Trace: p.trace}

	var recs []*record
	status := 0
	for _, w := range todo {
		// The host's speed, taken before and after the workload: on a shared
		// box it moves from one quarter of an hour to the next, and every
		// timing with it.
		alu0, mem0 := hostCalibration()
		rec, err := runWorkload(w, p, env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		alu1, mem1 := hostCalibration()
		rec.Metrics["host.calib_alu_ns"] = metricValue{Value: (alu0 + alu1) / 2, Unit: "ns"}
		rec.Metrics["host.calib_mem_ns"] = metricValue{Value: (mem0 + mem1) / 2, Unit: "ns"}
		printRecord(rec)
		recs = append(recs, rec)
		if !rec.Correct {
			status = 1
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(recs) == 1 {
		line, err := driverLine(recs[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}
