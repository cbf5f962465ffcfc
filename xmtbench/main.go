// Command xmtbench is the repository benchmark. It drives the XMT toolchain
// through its public Go entry points on one named workload, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of standard
// output. README.md describes the workloads and every metric.
//
// Run it from the repository root through the launcher, which builds this
// module first:
//
//	bash xmtbench/run.sh --workload sim-compute --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runDeadline bounds one invocation; a run that exceeds it exits non-zero
// without printing a result.
const runDeadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-compute, sim-memory, toolchain or daemon-open")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of one measured phase, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	out := fs.String("out", filepath.Join(".bench_build", "xmtbench-out"), "directory for traces, profiles and daemon state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "xmtbench: %v\n", err)
		return 2
	}
	w, ok := benchWorkloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "xmtbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "xmtbench: %v\n", err)
		return 1
	}
	timer := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(stderr, "xmtbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})
	defer timer.Stop()

	o := &options{
		workload: *name,
		seed:     *seed,
		phase:    time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		prefix:   filepath.Join(*out, fmt.Sprintf("%s-s%d", *name, *seed)),
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "xmtbench: %s: %v\n", *name, err)
		return 1
	}
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
	}
	line, err := res.finalLine(defs, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "xmtbench: %s: %v\n", *name, err)
		return 1
	}
	for _, l := range res.report {
		fmt.Fprintln(stdout, l)
	}
	host, err := json.Marshal(res.host)
	if err != nil {
		fmt.Fprintf(stderr, "xmtbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintln(stdout, line)
	return 0
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	phase    time.Duration
	trace    bool
	prefix   string // path prefix for this run's trace and profile files
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// specPath is the benchmark declaration, relative to the repository root
// the harness runs from.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the harness reads: every
// workload it declares, the end-to-end metrics a --trace 0 run reports and
// the per-layer metrics a --trace 1 run reports (README.md defines each).
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads the benchmark declaration and checks that it names
// exactly the harness's workloads.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := map[string]bool{}
	for _, w := range s.Workloads {
		if _, ok := benchWorkloads[w.Name]; !ok {
			return nil, fmt.Errorf("%s: workload %q is not in the harness", path, w.Name)
		}
		names[w.Name] = true
	}
	for n := range benchWorkloads {
		if !names[n] {
			return nil, fmt.Errorf("%s: does not declare harness workload %q", path, n)
		}
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// result is what one invocation prints.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	report            []string
	host              map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, host: hostClass()}
}

// reportf adds one human-readable line to the report printed before the
// result.
func (r *result) reportf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the result object with the metrics defs names: the
// end-to-end ones without tracing, the per-layer ones with it. Per-layer
// metrics of a layer the workload does not run are reported as 0.
func (r *result) finalLine(defs []metricDef, trace bool) (string, error) {
	vals := r.e2e
	if trace {
		vals = r.layer
	}
	m := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m[d.Name] = jsonMetric{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := m[name]; !ok {
			return "", fmt.Errorf("metric %q is not in the metric list", name)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m})
	return string(b), err
}
