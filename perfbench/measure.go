package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// sizes fixes the input sizes of every workload. Tests shrink them.
type sizes struct {
	flowSmall flowSize
	flowLarge flowSize
	eco       ecoSize
	svc       svcSize
}

// fullSizes are the benchmark's sizes. The variant and delta counts and
// svc's quality jobs are large enough that the summed quality figures and
// the allocation per op move by a few percent at most from seed to seed;
// flow_large's variants make each of its runs at least 7 flows (~30 s).
// svc's designs are large enough that a job's CPU time, not the store's
// fsyncs, bounds the loop: at 300 cells the loop ran about twice as fast
// with its store on tmpfs as on disk, so its figures followed the disk.
var fullSizes = sizes{
	flowSmall: flowSize{setups: 5, scale: 0.004, variants: 32, k: 10},
	flowLarge: flowSize{setups: 5, scale: 0.02, variants: 7, k: 10},
	eco:       ecoSize{setups: 3, scale: 0.01, k: 10, deltas: 96, moves: 4, rewires: 1},
	svc:       svcSize{setups: 9, cells: 1000, nets: 1000, k: 3, moves: 4, rewires: 1, qualityJobs: 40},
}

// env is what a workload runner gets: the options plus its scratch
// directory and a log for gate breaches.
type env struct {
	options
	scratch string
	log     io.Writer
}

// gateFailure logs one correctness-gate breach.
func (e *env) gateFailure(res *result, format string, args ...any) {
	res.failed++
	fmt.Fprintf(e.log, "perfbench: gate: "+format+"\n", args...)
}

// measuredFor reports whether the timed loop should go on: it runs for the
// configured seconds and at least minOps operations, so every input of the
// run's fixed set is covered.
func (e *env) measuredFor(start time.Time, ops, minOps int) bool {
	return ops < minOps || time.Since(start) < e.seconds
}

// median returns the middle value (mean of the two middle values for even
// counts); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile with linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// setup runs fn n times, passing the repeat's index, and returns the
// median wall time. Each repeat starts after a full GC, so that it pays no
// collection of the previous one's garbage and the process's peak RSS is
// that of one set-up, not of several overlapping.
func setup(n int, fn func(rep int) error) (float64, error) {
	var ts []float64
	for r := 0; r < n; r++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(r); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocBytes float64
	gcCycles   float64
	gcPause    time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		gcCycles:   float64(after.NumGC - before.NumGC),
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// memTotals accumulates memDeltas over a run's operations.
type memTotals struct {
	ops int
	memDelta
}

func (t *memTotals) add(d memDelta) {
	t.ops++
	t.allocBytes += d.allocBytes
	t.gcCycles += d.gcCycles
	t.gcPause += d.gcPause
}

// report sets alloc_mb (end-to-end) and the go.* per-layer metrics, each
// per operation.
func (t *memTotals) report(m metricSet) {
	n := float64(max(t.ops, 1))
	m.set("alloc_mb", t.allocBytes/n/(1<<20), "MB")
	m.set("go.gc_cycles", t.gcCycles/n, "count")
	m.set("go.gc_pause_s", t.gcPause.Seconds()/n, "s")
}

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the ID of the span that made the call (0 for an
// operation's root and for probes outside any operation).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; the run writes them out once at the end.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// coverage is the share of span id's duration its direct children cover.
func (t *tracer) coverage(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids time.Duration
	for _, s := range t.spans[id-1:] {
		if s.Parent == id {
			kids += s.dur()
		}
	}
	return ratio(kids.Seconds(), t.spans[id-1].dur().Seconds())
}

// record adds a span whose times were taken by the caller, as when a
// client sees a job's phases from outside the service, and returns its ID.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a child span of parent and returns its duration.
func (t *tracer) timed(op, parent int, name string, fn func()) time.Duration {
	id := t.begin(op, parent, name)
	fn()
	return t.end(id)
}

// design is design.json: the seeds, and for each per-layer metric the
// workloads that exercise its layer and the end-to-end metric it should move.
type design struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	PerLayer    map[string]struct {
		MeasuredOn []string `json:"measured_on"`
		Moves      []string `json:"moves"`
	} `json:"per_layer"`
}

//go:embed design.json
var designJSON []byte

var designDoc = func() design {
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		panic(fmt.Sprintf("perfbench: design.json: %v", err))
	}
	return d
}()

func (d design) measuredOn(name, workload string) bool {
	for _, w := range d.PerLayer[name].MeasuredOn {
		if w == workload {
			return true
		}
	}
	return false
}
