// Command perfbench is the repository's end-to-end benchmark. It drives
// the program's public Go packages in one process and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload repro|ingest_http|ingest_inproc --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures one workload with tracing off and reports
// the end-to-end metrics. With --trace 1 it makes the traced run: spans
// around calls into each layer's public functions, kept in memory and
// written beside the binary at the end, reduced to the per-layer
// metrics. README.md lists every metric and what it moves.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every --trace 0 run reports, whatever the
// workload; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"windows_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"served_ratio", "ratio"},
	{"accuracy_pct", "%"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every --trace 1 run reports. A layer measured
// on more than one workload's path carries that workload as a prefix.
var perLayer = []metricDef{
	{"workload.sample_s", "s"},
	{"micro.execute_s", "s"},
	{"micro.instr", "count"},
	{"micro.instr_per_s", "1/s"},
	{"pmu.measure_s", "s"},
	{"pmu.windows", "count"},
	{"dataset.rows", "count"},
	{"dataset.generate_s", "s"},
	{"trace.container_s", "s"},
	{"parallel.generate_busy_ratio", "ratio"},
	{"ml.train_s", "s"},
	{"ml.models", "count"},
	{"eval.predict_s", "s"},
	{"pca.fit_s", "s"},
	{"hw.synth_s", "s"},
	{"ingest.decode_s", "s"},
	{"ingest.decode_bytes", "B"},
	{"ingest.decode_windows_per_s", "1/s"},
	{"http.transport_s", "s"},
	{"obs.trace_overhead_pct", "%"},
	{"ingest.drain_s", "s"},
	{"infer.predict_s", "s"},
	{"infer.windows_per_s", "1/s"},
	{"quality.board_s", "s"},
	{"quality.drift_s", "s"},
	{"online.smoother_s", "s"},
	{"ingest_http.ingest.enqueue_s", "s"},
	{"ingest_http.ingest.requests", "count"},
	{"ingest_http.ingest.windows", "count"},
	{"ingest_http.ingest.rejected", "count"},
	{"ingest_inproc.ingest.enqueue_s", "s"},
	{"ingest_inproc.ingest.requests", "count"},
	{"ingest_inproc.ingest.windows", "count"},
	{"ingest_inproc.ingest.rejected", "count"},
	{"repro.go.alloc_bytes_per_window", "B"},
	{"repro.go.gc_cycles", "count"},
	{"ingest_http.go.alloc_bytes_per_window", "B"},
	{"ingest_http.go.gc_cycles", "count"},
	{"ingest_inproc.go.alloc_bytes_per_window", "B"},
	{"ingest_inproc.go.gc_cycles", "count"},
}

var workloads = []string{"repro", "ingest_http", "ingest_inproc"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems are the failed output checks, printed before the result.
	problems []string
}

// set records a metric value; the unit comes from the metric tables.
func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// mismatch records a failed output check.
func (r *result) mismatch(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// complete checks that r reports exactly the metrics of defs, each a
// finite number under a valid name.
func (r *result) complete(defs []metricDef) error {
	var errs []error
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !validName(d.name):
			errs = append(errs, fmt.Errorf("invalid metric name %q", d.name))
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", d.name))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s is not finite: %v", d.name, m.Value))
		}
	}
	if len(r.Metrics) != len(defs) {
		errs = append(errs, fmt.Errorf("%d metrics reported, want %d", len(r.Metrics), len(defs)))
	}
	return errors.Join(errs...)
}

// options are one run's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	once := fs.Bool("pipeline-once", false, "run one cold repro pipeline and print its timings (used by the repro workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *once {
		if err := runPipelineOnce(stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloads)
		return 2
	}
	opt := options{workload: *wl, seed: *seed, seconds: float64(*seconds)}

	host := currentHost()
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	var res *result
	var err error
	steal0, t0 := stealTicks(), time.Now()
	defer func() {
		// 100 ticks per CPU-second on Linux.
		share := float64(stealTicks()-steal0) / (time.Since(t0).Seconds() * 100 * float64(host.NumCPU))
		fmt.Fprintf(os.Stderr, "perfbench: host CPU steal during the run: %.1f%%\n", 100*share)
	}()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = tracedRun(opt, host, stdout)
	} else {
		switch opt.workload {
		case "repro":
			res, err = runRepro(opt, stdout)
		case "ingest_http":
			res, err = runIngestHTTP(opt, stdout)
		case "ingest_inproc":
			res, err = runIngestInproc(opt, stdout)
		}
	}
	if err == nil {
		err = res.complete(defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// hostInfo identifies the machine a result was measured on: results from
// different hosts are not comparable.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks is the host's cumulative CPU steal from /proc/stat, in
// clock ticks over all CPUs: time the hypervisor ran something else
// while this machine's CPUs had work. It is 0 where unavailable.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fields[8], 10, 64)
	return v
}

// memCounters reads the allocation and GC totals the go.* layer metrics
// are differences of.
func memCounters() (allocBytes uint64, gcCycles uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

// infof prints an informational line before the result line.
func infof(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}
