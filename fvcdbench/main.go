// Command fvcdbench is fvcd's end-to-end benchmark. It boots fvcd
// in-process (a single replica, or two peered replicas behind a
// cluster.Router), drives it over loopback HTTP with closed-loop
// clients for a fixed time, checks the answers against the library
// oracles, and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; fvcdbench/run.sh builds and runs it):
//
//	fvcdbench --workload survey-grid|query-scatter|churn-cluster \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// second, traced phase follows the untraced one and the metrics are the
// per-layer ones. README.md in this directory describes the workloads
// and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its constructor. A constructor
// boots the topology under dir, registers the fixtures and returns the
// setup time.
var workloads = map[string]func(e *env, dir string) (rig, time.Duration, error){
	"survey-grid":   newSurveyRig,
	"query-scatter": newQueryRig,
	"churn-cluster": newChurnRig,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvcdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{base: ".bench_build"}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (fixtures and request streams derive from it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured duration of one phase")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if err := os.MkdirAll(o.base, 0o755); err != nil {
		fmt.Fprintln(stderr, "fvcdbench:", err)
		return 1
	}
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fvcdbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fvcdbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	base     string // parent of the run's scratch directory
}

// endToEndMetrics are the metrics of an untraced run. Every workload
// reports each of them; README.md maps them to the workload's named
// figures (eval_p50_ms is survey_p50_ms on survey-grid and
// query_p50_ms elsewhere, and so on).
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"},
	{"eval_p50_ms", "ms"},
	{"eval_tail_ms", "ms"},
	{"points_per_s", "points/s"},
	{"cycle_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload: setupReps boots (setup_s is their median;
// the last boot stays up), a warm-up phase, the measured untraced
// phase, with --trace 1 a traced phase, then the oracle checks. A
// human-readable report goes to w.
func bench(o options, w io.Writer) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	dir, err := os.MkdirTemp(o.base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := newEnv(o.seed, dir)
	defer e.hc.CloseIdleConnections()

	var setups []float64
	var r rig
	for i := 0; i < setupReps; i++ {
		boot := filepath.Join(dir, fmt.Sprintf("boot%d", i))
		rr, d, err := mk(e, boot)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			rr.close()
			os.RemoveAll(boot)
		} else {
			r = rr
		}
	}
	defer r.close()

	measure := time.Duration(o.seconds * float64(time.Second))
	warm := runPhase(r, min(measure/5, 2*time.Second))
	measured := runPhase(r, measure)
	logs := []*opLog{warm, measured}
	var layers map[string]float64
	var traced *opLog
	var spans []span
	var before, after promSample
	if o.trace {
		r.beginTrace()
		if before, err = r.scrape(); err != nil {
			return nil, err
		}
		e.tr.on.Store(true)
		traced = runPhase(r, measure)
		e.tr.on.Store(false)
		spans = e.tr.take()
		if after, err = r.scrape(); err != nil {
			return nil, err
		}
		logs = append(logs, traced)
	}

	vl := newOpLog()
	if err := r.verify(logs, vl); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if o.trace {
		if layers, err = r.layers(traced, spans, before, after); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}

	res := &result{Metrics: make(map[string]metric)}
	logs = append(logs, vl)
	for _, l := range logs {
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	res.Correct = res.Failed == 0
	setupS := median(setups)
	m := r.endToEnd(measured)
	if o.trace {
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metric{Value: layers[lm.name], Unit: lm.unit}
		}
		res.Metrics["tracing.overhead_pct"] = metric{
			Value: (m.pointsPerS/r.endToEnd(traced).pointsPerS - 1) * 100, Unit: "%"}
	} else {
		values := map[string]float64{
			"setup_s":      setupS,
			"eval_p50_ms":  m.evalP50,
			"eval_tail_ms": m.evalTail,
			"points_per_s": m.pointsPerS,
			"cycle_p50_ms": m.cycleP50,
			"peak_rss_mb":  measured.peakRSS,
		}
		for _, em := range endToEndMetrics {
			res.Metrics[em.name] = metric{Value: values[em.name], Unit: em.unit}
		}
	}
	report(w, o, res, m, measured, logs, vl.checks, setupS)
	return res, nil
}

// report prints the run for people: the workload's named end-to-end
// metrics with sample counts, then the metrics of the final line.
func report(w io.Writer, o options, res *result, m e2e, measured *opLog, logs []*opLog, checks int64, setupS float64) {
	fmt.Fprintf(w, "workload %s seed %d: %.1f s measured, %d requests, %d failed, %d oracle checks\n",
		o.workload, o.seed, measured.wall.Seconds(), res.Attempted, res.Failed, checks)
	fmt.Fprintf(w, "  %-26s %14.6f s (median of %d boots)\n", "setup_s", setupS, setupReps)
	for _, n := range m.named {
		fmt.Fprintf(w, "  %-26s %14.6f %s (n=%d)\n", n.name, n.value, n.unit, n.n)
	}
	fmt.Fprintf(w, "  %-26s %14.6f failed/attempted\n", "error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)))
	fmt.Fprintf(w, "  %-26s %14.6f MB\n", "peak_rss_mb", measured.peakRSS)
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, l := range logs {
		for _, e := range l.errs {
			fmt.Fprintln(w, "  error:", e)
		}
	}
}
