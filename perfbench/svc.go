package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/lefdef"
	"github.com/crp-eda/crp/internal/service"
)

// svcSize fixes the svc workload's jobs: fresh jobs are synthetic designs
// of cells/nets run for k iterations; ECO jobs carry moves cell moves and
// rewires net rewirings. Quality is summed over each client's first
// qualityJobs jobs, which every run completes.
type svcSize struct {
	setups         int // daemon starts per run; setup_s is their median
	cells, nets, k int
	moves, rewires int
	qualityJobs    int
}

// Job kinds of the clients' scripts, in equal shares.
const (
	kindFresh  = "fresh"  // a new spec: a cache miss that runs a full checkpointed flow
	kindRepeat = "repeat" // an earlier spec of the same client: a cache hit served at admission
	kindECO    = "eco"    // a delta against the client's last finished non-ECO job
)

// runSvc measures one job at a time per client through an in-process crpd
// on a loopback listener: GOMAXPROCS clients in a closed loop, each
// submitting over HTTP and waiting for done before its next job. The
// traced run measures an untraced loop and a traced loop, half the time
// each, on two fresh daemons, and checks they produced the same results.
func runSvc(e *env) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	res := &result{metrics: metricSet{}}
	var dm *daemon
	daemons := 0
	// startWarm starts a daemon and runs one warm-up job through it, so
	// that the daemon's lazy start-up is paid before any timed job. The
	// warm-up design is the same on every daemon, and no client's.
	startWarm := func() error {
		daemons++
		var err error
		if dm, err = startDaemon(filepath.Join(e.scratch, fmt.Sprintf("crpd-%d", daemons)), workers); err != nil {
			return err
		}
		warm := &client{dm: dm, e: e, id: -1, rng: newScriptRand(e.seed, -1)}
		return warm.do(kindFresh)
	}
	defer func() {
		if dm != nil {
			dm.stop()
		}
	}()
	// Every set-up but the last stops its daemon again, outside the timed
	// interval.
	var starts []float64
	for r := 0; r < e.sizes.svc.setups; r++ {
		if dm != nil {
			if err := dm.stop(); err != nil {
				return nil, err
			}
			dm = nil
		}
		runtime.GC()
		t0 := time.Now()
		if err := startWarm(); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	setup := median(starts)
	res.metrics.set("setup_s", setup, "s")

	if !e.trace {
		lp := runLoop(e, dm, workers, e.seconds, nil)
		lp.tally(e, res)
		lp.report(e, res.metrics)
		return res, nil
	}

	plain := runLoop(e, dm, workers, e.seconds/2, nil)
	plain.tally(e, res)
	if err := dm.stop(); err != nil {
		return nil, err
	}
	dm = nil
	if err := startWarm(); err != nil {
		return nil, err
	}
	tr := newTracer()
	traced := runLoop(e, dm, workers, e.seconds/2, tr)
	traced.tally(e, res)
	for i := range traced.clients {
		a, b := plain.clients[i].results, traced.clients[i].results
		for j := 0; j < min(len(a), len(b)); j++ {
			if a[j] != b[j] {
				e.gateFailure(res, "svc client %d job %d: traced result %+v differs from untraced %+v", i, j, b[j], a[j])
			}
		}
	}
	st, err := dm.stats()
	if err != nil {
		return nil, err
	}
	traced.reportLayers(res.metrics, plain, st, tr)
	res.spans = tr.spans
	return res, nil
}

// daemon is an in-process crpd serving its HTTP API on loopback.
type daemon struct {
	dir    string // the service's DataDir: one directory per job
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	base   string
	http   *http.Client
}

func startDaemon(dir string, workers int) (*daemon, error) {
	svc, err := service.New(service.Config{DataDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drain(svc)
		return nil, err
	}
	dm := &daemon{
		dir:    dir,
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: workers},
		},
	}
	go func() {
		defer close(dm.served)
		dm.srv.Serve(ln)
	}()
	var ok map[string]bool
	if err := dm.get("/healthz", &ok); err != nil || !ok["ok"] {
		dm.stop()
		return nil, fmt.Errorf("daemon not healthy: %v", err)
	}
	return dm, nil
}

func drain(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return svc.Drain(ctx)
}

// stop drains the service, then shuts the HTTP server down and waits for
// its goroutine to exit.
func (dm *daemon) stop() error {
	derr := drain(dm.svc)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	serr := dm.srv.Shutdown(ctx)
	<-dm.served
	dm.http.CloseIdleConnections()
	return errors.Join(derr, serr)
}

func (dm *daemon) get(path string, v any) error {
	resp, err := dm.http.Get(dm.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (dm *daemon) bytes(path string) ([]byte, error) {
	resp, err := dm.http.Get(dm.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, err
}

func (dm *daemon) submit(spec service.Spec) (service.Status, error) {
	var st service.Status
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := dm.http.Post(dm.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// follow reads the job's event stream until the server ends it, which it
// does once the job is terminal. It returns when the first attempt was
// seen to start and when the stream ended.
func (dm *daemon) follow(id string) (running, ended time.Time, err error) {
	resp, err := dm.http.Get(dm.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return running, ended, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !running.IsZero() {
			continue
		}
		var ev service.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind == "attempt" {
			running = time.Now()
		}
	}
	ended = time.Now()
	if running.IsZero() {
		running = ended
	}
	return running, ended, sc.Err()
}

func (dm *daemon) stats() (service.Stats, error) {
	var st service.Stats
	return st, dm.get("/v1/stats", &st)
}

// job is one finished job as its client saw it.
type job struct {
	kind                     string
	hit                      bool
	admit, queue, run, total time.Duration
	dir                      string    // the job's directory in the daemon's store
	design                   ispd.Spec // the design whose library out.def is written in
}

// parentJob is a finished non-ECO job: a repeat target and an ECO parent.
type parentJob struct {
	id   string
	spec service.Spec
	def  []byte
}

// client is one closed-loop user with its seeded script.
type client struct {
	dm     *daemon
	e      *env
	id     int
	rng    *rand.Rand
	tr     *tracer
	nextOp func() int
	block  []string
	fresh  []parentJob
	last   *parentJob
	jobs   []job
	// results holds each job's reported metrics in script order; the
	// first qualityJobs give the run's quality figures.
	results  []service.Metrics
	failures []string
	depthMax int
	gens     []float64
	roots    []int // root span of each traced job
}

// loop is one closed-loop measurement.
type loop struct {
	clients []*client
	wall    time.Duration
	mem     memDelta
}

func runLoop(e *env, dm *daemon, n int, d time.Duration, tr *tracer) *loop {
	lp := &loop{}
	var opMu sync.Mutex
	op := 0
	nextOp := func() int {
		opMu.Lock()
		defer opMu.Unlock()
		op++
		return op
	}
	for i := 0; i < n; i++ {
		lp.clients = append(lp.clients, &client{
			dm: dm, e: e, id: i, tr: tr, nextOp: nextOp,
			rng: newScriptRand(e.seed, i),
		})
	}
	// Flush what earlier writers left dirty, the previous run's deleted
	// job stores among them, so that the timed loop does not pay for
	// their writeback.
	syscall.Sync()
	runtime.GC()
	before := readMem()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range lp.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for len(c.jobs) < e.sizes.svc.qualityJobs || time.Since(start) < d {
				if err := c.do(c.nextKind()); err != nil {
					c.failures = append(c.failures, fmt.Sprintf("svc client %d job %d: %v", c.id, len(c.jobs), err))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	lp.wall = time.Since(start)
	lp.mem = memSince(before)
	return lp
}

// newScriptRand seeds one client's script from the workload seed.
func newScriptRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(client)))
}

// nextKind draws the script: blocks of one job of each kind in seeded
// order, the very first job being fresh so that later kinds have targets.
func (c *client) nextKind() string {
	if len(c.block) == 0 {
		c.block = []string{kindFresh, kindRepeat, kindECO}
		if c.last != nil {
			c.rng.Shuffle(len(c.block), func(a, b int) { c.block[a], c.block[b] = c.block[b], c.block[a] })
		}
	}
	k := c.block[0]
	c.block = c.block[1:]
	return k
}

// freshSpec is the client's n-th new design: a ~1000-cell synthetic circuit
// unique to (seed, client, n).
func (c *client) freshSpec() service.Spec {
	sz := c.e.sizes.svc
	return service.Spec{
		Synthetic: &ispd.Spec{
			Name: "svc_job", Node: "n45", Cells: sz.cells, Nets: sz.nets,
			Utilisation: 0.85, Hotspots: 2, IOFraction: 0.03,
			Seed: c.e.seed*1_000_000 + int64(c.id)*100_000 + int64(len(c.fresh)),
		},
		K:       sz.k,
		Workers: 1,
	}
}

// ecoSpec generates a delta against the parent's DEF output and returns
// the ECO job that applies it.
func (c *client) ecoSpec(p *parentJob) (service.Spec, error) {
	sz := c.e.sizes.svc
	t0 := time.Now()
	lib, err := ispd.Generate(*p.spec.Synthetic)
	if err != nil {
		return service.Spec{}, err
	}
	c.gens = append(c.gens, time.Since(t0).Seconds())
	base, err := lefdef.ParseDEF(bytes.NewReader(p.def), lib.Tech, lib.Macros)
	if err != nil {
		return service.Spec{}, fmt.Errorf("parsing parent DEF: %w", err)
	}
	delta, err := eco.GenerateDelta(base, sz.moves, sz.rewires, c.rng.Int63())
	if err != nil {
		return service.Spec{}, err
	}
	raw, err := delta.Canonical()
	if err != nil {
		return service.Spec{}, err
	}
	return service.Spec{ParentJob: p.id, ECODelta: raw, K: sz.k, Workers: 1}, nil
}

// do runs one job of the given kind to completion and checks its outcome.
func (c *client) do(kind string) error {
	var spec service.Spec
	var original *parentJob
	var design ispd.Spec
	switch kind {
	case kindFresh:
		spec = c.freshSpec()
		design = *spec.Synthetic
	case kindRepeat:
		original = &c.fresh[c.rng.Intn(len(c.fresh))]
		spec = original.spec
		design = *spec.Synthetic
	case kindECO:
		var err error
		if spec, err = c.ecoSpec(c.last); err != nil {
			return err
		}
		design = *c.last.spec.Synthetic
	}

	t0 := time.Now()
	st, err := c.dm.submit(spec)
	admitted := time.Now()
	if err != nil {
		return err
	}
	if c.tr != nil {
		s, err := c.dm.stats()
		if err != nil {
			return err
		}
		c.depthMax = max(c.depthMax, s.QueueDepth)
	}
	hit := st.State == service.StateDone
	running, ended := admitted, admitted
	if !hit {
		if running, ended, err = c.dm.follow(st.ID); err != nil {
			return err
		}
	}
	var final service.Status
	if err := c.dm.get("/v1/jobs/"+st.ID, &final); err != nil {
		return err
	}
	if final.State != service.StateDone || final.Metrics == nil {
		return fmt.Errorf("%s job %s ended %s: %s", kind, st.ID, final.State, final.Error)
	}
	if final.Metrics.Truncated {
		return fmt.Errorf("%s job %s: detailed routing was truncated", kind, st.ID)
	}
	j := job{
		kind: kind, hit: hit,
		admit: admitted.Sub(t0), queue: running.Sub(admitted), run: ended.Sub(running), total: ended.Sub(t0),
		dir: filepath.Join(c.dm.dir, st.ID), design: design,
	}
	c.jobs = append(c.jobs, j)
	c.results = append(c.results, *final.Metrics)
	if c.tr != nil {
		op := c.nextOp()
		root := c.tr.record(op, 0, "service.job", t0, ended)
		c.roots = append(c.roots, root)
		c.tr.record(op, root, "service.admit", t0, admitted)
		c.tr.record(op, root, "service.queue", admitted, running)
		c.tr.record(op, root, "service.run", running, ended)
	}
	if kind == kindECO {
		return nil
	}
	def, err := c.dm.bytes("/v1/jobs/" + st.ID + "/def")
	if err != nil {
		return err
	}
	if original != nil {
		if err := sameBytes("repeat of job "+original.id+" out.def", original.def, def); err != nil {
			return err
		}
	}
	p := parentJob{id: st.ID, spec: spec, def: def}
	if kind == kindFresh {
		c.fresh = append(c.fresh, p)
	}
	c.last = &p
	return nil
}

// tally adds the loop's jobs and gate breaches to res, after checking
// every finished job's persisted outcome.
func (lp *loop) tally(e *env, res *result) {
	var lib designLib
	for _, c := range lp.clients {
		res.attempted += len(c.jobs) + len(c.failures)
		for _, f := range c.failures {
			e.gateFailure(res, "%s", f)
		}
		for i, j := range c.jobs {
			if err := j.verify(&lib); err != nil {
				e.gateFailure(res, "svc client %d job %d (%s): %v", c.id, i, j.kind, err)
			}
		}
	}
}

// verify is the gate on a finished job's stored outcome, read from the
// daemon's store after the timed loop: no degradation outside the ECO
// ladder in result.json, and, for a job that ran rather than being served
// from the cache, a legal final placement in out.def. A cache hit's out.def
// was already checked byte-equal to its original's.
func (j job) verify(lib *designLib) error {
	raw, err := os.ReadFile(filepath.Join(j.dir, "result.json"))
	if err != nil {
		return err
	}
	var out struct {
		Degradations []string `json:"degradations"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("result.json: %w", err)
	}
	if err := checkDegradations(out.Degradations); err != nil {
		return err
	}
	if j.hit {
		return nil
	}
	gen, err := lib.get(j.design)
	if err != nil {
		return err
	}
	def, err := os.ReadFile(filepath.Join(j.dir, "out.def"))
	if err != nil {
		return err
	}
	d, err := lefdef.ParseDEF(bytes.NewReader(def), gen.Tech, gen.Macros)
	if err != nil {
		return fmt.Errorf("parsing out.def: %w", err)
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("final placement: %w", err)
	}
	return nil
}

func (lp *loop) each(fn func(job)) {
	for _, c := range lp.clients {
		for _, j := range c.jobs {
			fn(j)
		}
	}
}

// report sets the end-to-end metrics.
func (lp *loop) report(e *env, r metricSet) {
	var totals []float64
	lp.each(func(j job) { totals = append(totals, j.total.Seconds()) })
	var q quality
	for _, c := range lp.clients {
		for _, m := range c.results[:min(len(c.results), e.sizes.svc.qualityJobs)] {
			q.wirelength += float64(m.WirelengthDBU)
			q.vias += float64(m.Vias)
		}
	}
	reportTimes(r, totals)
	r.set("ops_per_s", float64(len(totals))/lp.wall.Seconds(), "1/s")
	q.report(r)
	mt := memTotals{ops: len(totals), memDelta: lp.mem}
	mt.report(r)
}

// reportLayers sets the service.* per-layer metrics of a traced loop.
func (lp *loop) reportLayers(r metricSet, plain *loop, st service.Stats, tr *tracer) {
	var admit, admitHit, queue, runMiss, runECO, total, gens, coverages []float64
	depth := 0
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	lp.each(func(j job) {
		admit = append(admit, ms(j.admit))
		total = append(total, ms(j.total))
		switch {
		case j.hit:
			admitHit = append(admitHit, ms(j.admit))
			return
		case j.kind == kindECO:
			runECO = append(runECO, ms(j.run))
		default:
			runMiss = append(runMiss, ms(j.run))
		}
		queue = append(queue, ms(j.queue))
	})
	for _, c := range lp.clients {
		depth = max(depth, c.depthMax)
		gens = append(gens, c.gens...)
		for _, root := range c.roots {
			coverages = append(coverages, tr.coverage(root))
		}
	}
	var plainTotal []float64
	plain.each(func(j job) { plainTotal = append(plainTotal, ms(j.total)) })
	r.set("service.job_p90_ms", quantile(plainTotal, 0.9), "ms")
	r.set("service.admit_p50_ms", median(admit), "ms")
	r.set("service.admit_p90_ms", quantile(admit, 0.9), "ms")
	r.set("service.admit_hit_p50_ms", median(admitHit), "ms")
	r.set("service.queue_wait_p50_ms", median(queue), "ms")
	r.set("service.queue_wait_p90_ms", quantile(queue, 0.9), "ms")
	r.set("service.queue_depth_max", float64(depth), "count")
	r.set("service.run_miss_p50_ms", median(runMiss), "ms")
	r.set("service.run_eco_p50_ms", median(runECO), "ms")
	r.set("service.cache_hit_rate", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)), "frac")
	r.set("ispd.generate_s", mean(gens), "s")
	r.set("trace.overhead_frac", ratio(median(total), median(plainTotal))-1, "frac")
	r.set("trace.coverage_frac", mean(coverages), "frac")
	r.set("ops", float64(len(total)), "count")
	mt := memTotals{ops: len(total), memDelta: lp.mem}
	mt.report(r)
}

// designLib holds the last generated design, whose library the next DEF is
// likely parsed against: a client's ECO jobs follow their parent. One
// design at a time keeps the gate out of the run's peak RSS.
type designLib struct {
	spec ispd.Spec
	d    *db.Design
}

func (l *designLib) get(spec ispd.Spec) (*db.Design, error) {
	if l.d == nil || l.spec != spec {
		d, err := ispd.Generate(spec)
		if err != nil {
			return nil, err
		}
		l.spec, l.d = spec, d
	}
	return l.d, nil
}
