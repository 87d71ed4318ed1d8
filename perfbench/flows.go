package main

import (
	"context"
	"runtime"
	"time"

	"github.com/crp-eda/crp/internal/crp"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eval"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/grid"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/route/global"
)

// flowSize fixes a flow workload: seeded variants of crp_test7 at scale,
// each run through k CR&P iterations.
type flowSize struct {
	setups   int // set-ups per run; setup_s is their median
	scale    float64
	variants int
	k        int
}

// variantSpecs derives a run's input set from the workload seed: crp_test7
// of ispd.Suite(scale), generated from n distinct seeds. Averaging over a
// set of designs keeps one unlucky design from setting a run's figures.
func variantSpecs(scale float64, n int, seed int64) []ispd.Spec {
	base := ispd.Suite(scale)[6]
	specs := make([]ispd.Spec, n)
	for i := range specs {
		specs[i] = base
		specs[i].Seed = seed*1000 + int64(i)
	}
	return specs
}

// sums accumulates per-operation layer figures; report divides by the
// operation count.
type sums map[string]metric

func (s sums) add(name string, v float64, unit string) {
	m := s[name]
	s[name] = metric{Value: m.Value + v, Unit: unit}
}

func (s sums) report(out metricSet, ops int) {
	for name, m := range s {
		out.set(name, m.Value/float64(max(ops, 1)), m.Unit)
	}
}

// addIterations adds the per-layer figures the CR&P iterations returned.
func (s sums) addIterations(its []crp.IterStats) {
	var t crp.PhaseTimes
	var crit, cands, moved, rerouted, nodes float64
	for _, it := range its {
		t.Label += it.Times.Label
		t.GCP += it.Times.GCP
		t.ECC += it.Times.ECC
		t.ILP += it.Times.ILP
		t.UD += it.Times.UD
		crit += float64(it.Criticals)
		cands += float64(it.Candidates)
		moved += float64(it.MovedCells)
		rerouted += float64(it.ReroutedNets)
		nodes += float64(it.SolverNodes)
	}
	s.add("crp.label_s", t.Label.Seconds(), "s")
	s.add("crp.gcp_s", t.GCP.Seconds(), "s")
	s.add("crp.ecc_s", t.ECC.Seconds(), "s")
	s.add("crp.select_s", t.ILP.Seconds(), "s")
	s.add("crp.ud_s", t.UD.Seconds(), "s")
	s.add("crp.criticals", crit, "count")
	s.add("crp.candidates", cands, "count")
	s.add("crp.moved_cells", moved, "count")
	s.add("crp.rerouted_nets", rerouted, "count")
	s.add("crp.select_nodes", nodes, "count")
}

// reportYield sets crp.move_yield from the accumulated counts.
func (s sums) reportYield(out metricSet) {
	out.set("crp.move_yield", ratio(s["crp.moved_cells"].Value, s["crp.candidates"].Value), "frac")
}

// quality sums the Table III figures over a run's fixed input set. DRVs
// are reported per layer (eval.drv): they are often 0, and an end-to-end
// metric must not be.
type quality struct {
	wirelength, vias float64
}

func (q *quality) add(m eval.Metrics) {
	q.wirelength += float64(m.WirelengthDBU)
	q.vias += float64(m.Vias)
}

func (q quality) report(out metricSet) {
	out.set("wirelength_dbu", q.wirelength, "dbu")
	out.set("vias", q.vias, "count")
}

// reportTimes sets the end-to-end timing metrics from the run's operation
// wall times: the median and the throughput of back-to-back ops. There is
// no end-to-end tail percentile: every workload must report every
// end-to-end metric, and a flow run holds too few flows for one.
func reportTimes(out metricSet, walls []float64) {
	out.set("op_s", median(walls), "s")
	out.set("ops_per_s", ratio(float64(len(walls)), sum(walls)), "1/s")
	out.set("ops", float64(len(walls)), "count")
}

// runFlow measures flow.RunCRP on the workload's variant set: a fresh
// design is generated before each operation, outside the timed interval,
// and the variants are cycled until the run's time is up, and at least
// once through, so that the quality figures cover every variant.
func runFlow(e *env, sz flowSize) (*result, error) {
	specs := variantSpecs(sz.scale, sz.variants, e.seed)
	res := &result{metrics: metricSet{}}
	setup, err := setup(sz.setups, func(int) error {
		for _, sp := range specs {
			if _, err := ispd.Generate(sp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.metrics.set("setup_s", setup, "s")

	ctx := context.Background()
	cfg := flow.DefaultConfig()
	gate := repeatGate{}
	var walls, tracedWalls, coverages []float64
	var mem memTotals
	var q quality
	lay := sums{}
	tr := newTracer()
	var gens []float64
	generate := func(v int) (*db.Design, error) {
		t0 := time.Now()
		d, err := ispd.Generate(specs[v])
		gens = append(gens, time.Since(t0).Seconds())
		return d, err
	}

	start := time.Now()
	for i := 0; e.measuredFor(start, i, len(specs)); i++ {
		v := i % len(specs)
		d, err := generate(v)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		before := readMem()
		t0 := time.Now()
		out := flow.RunCRP(ctx, d, sz.k, cfg)
		wall := time.Since(t0).Seconds()
		mem.add(memSince(before))
		res.attempted++
		if err := checkResult(d, out); err != nil {
			e.gateFailure(res, "%s op %d (input %d): %v", e.workload, i, v, err)
			continue
		}
		if i < len(specs) {
			q.add(out.Metrics)
		}
		if err := gate.check(v, out.Metrics); err != nil {
			e.gateFailure(res, "%s op %d: repeat: %v", e.workload, i, err)
			continue
		}
		walls = append(walls, wall)
		if !e.trace {
			continue
		}

		d, err = generate(v)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		m, root, tw := tracedCRP(ctx, tr, i+1, d, sz.k, cfg, lay)
		res.attempted++
		if err := gate.check(v, m); err != nil {
			e.gateFailure(res, "%s op %d: traced run disagrees with untraced: %v", e.workload, i, err)
			continue
		}
		if err := d.Validate(); err != nil {
			e.gateFailure(res, "%s op %d: traced final placement: %v", e.workload, i, err)
			continue
		}
		tracedWalls = append(tracedWalls, tw)
		coverages = append(coverages, tr.coverage(root))
	}

	r := res.metrics
	reportTimes(r, walls)
	q.report(r)
	mem.report(r)
	r.set("ispd.generate_s", mean(gens), "s")
	if e.trace {
		lay.report(r, len(tracedWalls))
		lay.reportYield(r)
		r.set("legal.window_hit_rate", ratio(lay["legal.window_hits"].Value, lay["legal.window_lookups"].Value), "frac")
		r.set("legal.solve_hit_rate", ratio(lay["legal.solve_hits"].Value, lay["legal.solve_lookups"].Value), "frac")
		r.set("trace.overhead_frac", ratio(sum(tracedWalls), sum(walls))-1, "frac")
		r.set("trace.coverage_frac", mean(coverages), "frac")
		res.spans = tr.spans
	}
	return res, nil
}

// tracedCRP makes the public calls flow.RunCRP makes — grid.New,
// global.New, RouteAllCtx, crp.New, k × Iterate, eval.EvaluateCtx — each in
// a span under the operation's root span, and adds what they return to lay.
// It returns the metrics, the root span and the operation's wall time.
func tracedCRP(ctx context.Context, tr *tracer, op int, d *db.Design, k int, cfg flow.Config, lay sums) (eval.Metrics, int, float64) {
	root := tr.begin(op, 0, "flow.run_crp")
	var g *grid.Grid
	var r *global.Router
	var gst global.Stats
	gr := tr.begin(op, root, "global.route_all")
	tr.timed(op, gr, "grid.new", func() { g = grid.New(d, cfg.Grid) })
	tr.timed(op, gr, "global.new", func() { r = global.New(d, g, cfg.Global) })
	tr.timed(op, gr, "global.route", func() { gst = r.RouteAllCtx(ctx) })
	lay.add("global.route_all_s", tr.end(gr).Seconds(), "s")
	lay.add("global.maze_routes", float64(gst.MazeRoutes), "count")
	lay.add("global.pattern_routes", float64(gst.PatternRoutes), "count")
	lay.add("global.rrr_passes", float64(gst.RRRPasses), "count")
	lay.add("global.overflow_edges", float64(gst.Overflow.OverflowedEdges), "count")

	ccfg := cfg.CRP
	ccfg.Iterations = k
	var eng *crp.Engine
	lay.add("crp.new_s", tr.timed(op, root, "crp.new", func() { eng = crp.New(d, g, r, ccfg) }).Seconds(), "s")
	var its []crp.IterStats
	var iterate time.Duration
	for i := 0; i < k && !eng.Broken(); i++ {
		iterate += tr.timed(op, root, "crp.iterate", func() { its = append(its, eng.Iterate(ctx)) })
	}
	lay.add("crp.iterate_s", iterate.Seconds(), "s")
	lay.addIterations(its)
	lay.add("crp.candidate_estimates", float64(eng.EstimateCount()), "count")
	lrun, lsolve := eng.L.Timing()
	ls := eng.L.Stats()
	lay.add("legal.run_s", lrun.Seconds(), "s")
	lay.add("legal.solve_s", lsolve.Seconds(), "s")
	lay.add("legal.shortcut_solves", float64(ls.ShortcutSolves), "count")
	lay.add("legal.budget_dropped", float64(ls.BudgetDropped), "count")
	lay.add("legal.window_hits", float64(ls.WindowHits), "count")
	lay.add("legal.window_lookups", float64(ls.WindowHits+ls.WindowMisses), "count")
	lay.add("legal.solve_hits", float64(ls.SolveHits), "count")
	lay.add("legal.solve_lookups", float64(ls.SolveHits+ls.SolveMisses), "count")

	var m eval.Metrics
	lay.add("eval.evaluate_s", tr.timed(op, root, "eval.evaluate", func() {
		m = eval.EvaluateCtx(ctx, d, g, r.Routes, cfg.Detail)
	}).Seconds(), "s")
	lay.add("eval.drv", float64(m.DRVs.Total()), "count")
	return m, root, tr.end(root).Seconds()
}
