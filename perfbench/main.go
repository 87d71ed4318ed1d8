// Command perfbench is the repository's benchmark: one command that runs a
// named workload of the CR&P stack for a fixed time, checks every output,
// and prints every metric by name with its unit, then one JSON result line.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload flow_small --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package into .bench_build and runs it. --trace 0 is the
// untraced run and reports the end-to-end metrics listed in BENCHMARK.json;
// --trace 1 is the traced run: it repeats each operation as the sequence of
// public calls the entry point makes, each wrapped in a span, reports the
// per-layer metrics and writes the spans under the --out directory.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	flow_small  flow.RunCRP on seeded crp_test7 variants at scale 0.004
//	flow_large  the same flow at scale 0.02
//	eco         flow.ECOFromCheckpoint replaying seeded deltas on one parent
//	svc         a closed loop of HTTP clients against an in-process crpd
//
// The exit code is 0 only when every operation passed the correctness gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root holding BENCHMARK.json
	out      string // scratch root for job stores, checkpoints and span files
	commit   string
	sizes    sizes
}

// result is what one workload run hands back for reporting.
type result struct {
	attempted int
	failed    int
	metrics   metricSet
	spans     []span
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"flow_small": func(e *env) (*result, error) { return runFlow(e, e.sizes.flowSmall) },
	"flow_large": func(e *env) (*result, error) { return runFlow(e, e.sizes.flowLarge) },
	"eco":        runECO,
	"svc":        runSvc,
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs one workload and reports it; it returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	bench, err := loadBenchmark(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	host := hostInfo(o)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	scratch := filepath.Join(o.out, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o777); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	res, err := measure(&env{options: o, scratch: scratch, log: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "host steal_frac %s\n", strconv.FormatFloat(res.metrics["host.steal_frac"].Value, 'g', 4, 64))

	list := bench.EndToEnd
	if o.trace {
		list = bench.PerLayer
	}
	out, err := selectMetrics(list, res.metrics, o.workload, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-32s %14s %s\n", n, strconv.FormatFloat(out[n].Value, 'g', -1, 64), out[n].Unit)
	}
	if o.trace {
		path, err := writeSpans(o, host, res.spans)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(res.spans), path)
	}
	line, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// measure runs the workload and adds the metrics of the whole process.
func measure(e *env) (*result, error) {
	cpu0 := readCPUTicks()
	res, err := workloads[e.workload](e)
	if err != nil {
		return nil, err
	}
	res.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	res.metrics.set("failed_frac", ratio(float64(res.failed), float64(res.attempted)), "frac")
	res.metrics.set("host.steal_frac", readCPUTicks().stealSince(cpu0), "frac")
	return res, nil
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: flow_small, flow_large, eco or svc")
	seed := fs.Int64("seed", designDoc.DefaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	root := fs.String("root", ".", "repository root holding BENCHMARK.json")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch data and span files")
	commit := fs.String("commit", "unknown", "source revision recorded in the host line")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return options{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     *root,
		out:      *out,
		commit:   *commit,
		sizes:    fullSizes,
	}, nil
}

// benchmarkFile is the part of BENCHMARK.json the command reads: the metric
// lists it must report.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

// selectMetrics picks the listed metrics out of what the run measured. An
// end-to-end metric is measured on every workload; a per-layer metric must
// be measured on the workloads design.json names for it and reads 0 (layer
// not exercised) elsewhere. A unit that disagrees with BENCHMARK.json is a
// bug in the benchmark, not a measurement.
func selectMetrics(list []metricSpec, got metricSet, workload string, perLayer bool) (metricSet, error) {
	out := metricSet{}
	for _, m := range list {
		v, ok := got[m.Name]
		switch {
		case ok && v.Unit != m.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		case ok:
			out[m.Name] = v
		case perLayer && !designDoc.measuredOn(m.Name, workload):
			out[m.Name] = metric{Value: 0, Unit: m.Unit}
		default:
			return nil, fmt.Errorf("workload %s did not measure %s", workload, m.Name)
		}
	}
	return out, nil
}

// host is the fingerprint and provenance printed with every result.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

func hostInfo(o options) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     o.commit,
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
		Seconds:    o.seconds.Seconds(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks is the first line of /proc/stat: the host's CPU time so far, in
// ticks, and the part of it the hypervisor gave to other guests (steal).
type cpuTicks struct{ total, steal float64 }

// readCPUTicks reads /proc/stat; it returns zeros where the file does not
// exist or has no steal column.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of the CPU time since before that was stolen:
// time the workload's CPUs were ready to run but the host ran something
// else. It makes a slow run on a busy host visible as such.
func (t cpuTicks) stealSince(before cpuTicks) float64 {
	return ratio(t.steal-before.steal, t.total-before.total)
}

// writeSpans writes the traced run's spans once, at the end of the run.
func writeSpans(o options, h host, spans []span) (string, error) {
	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, spans}); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return path, os.WriteFile(path, buf.Bytes(), 0o666)
}
