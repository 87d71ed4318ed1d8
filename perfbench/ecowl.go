package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/crp-eda/crp/internal/checkpoint"
	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eco"
	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
	"github.com/crp-eda/crp/internal/view"
)

// ecoSize fixes the eco workload: the parent is crp_test7 at scale run for
// k iterations; the run replays a fixed sequence of deltas, each of moves
// cell moves and rewires net rewirings.
type ecoSize struct {
	setups  int // set-ups per run; setup_s is their median
	scale   float64
	k       int
	deltas  int
	moves   int
	rewires int
}

// runECO measures flow.ECOFromCheckpoint, the `crp -eco-from` path. Set-up
// generates the parent design, runs and checkpoints it, and derives the
// delta sequence from its final placement. Every operation replays one
// delta against that same parent on a freshly generated design; deltas are
// not chained. The parent is the suite's own crp_test7, whatever the
// workload seed: the seed picks the deltas. A parent per seed would make
// the run's quality figures those of one design, which vary from seed to
// seed more than the bounds allow.
func runECO(e *env) (*result, error) {
	sz := e.sizes.eco
	spec := ispd.Suite(sz.scale)[6]
	ctx := context.Background()
	cfg := flow.DefaultConfig()
	res := &result{metrics: metricSet{}}
	gate := repeatGate{}

	var mgr *checkpoint.Manager
	var deltas []*eco.Delta
	setup, err := setup(sz.setups, func(rep int) error {
		d, err := ispd.Generate(spec)
		if err != nil {
			return err
		}
		m, err := checkpoint.Open(filepath.Join(e.scratch, fmt.Sprintf("parent-%d", rep)), 0)
		if err != nil {
			return err
		}
		pr, err := flow.RunCRPCheckpointed(ctx, d, sz.k, cfg, &flow.Checkpointing{Manager: m}, io.Discard, io.Discard)
		if err != nil {
			return fmt.Errorf("parent run: %w", err)
		}
		if err := checkResult(d, pr); err != nil {
			return fmt.Errorf("parent run: %w", err)
		}
		if err := gate.check(-1, pr.Metrics); err != nil {
			return fmt.Errorf("parent run is not reproducible: %w", err)
		}
		ds := make([]*eco.Delta, sz.deltas)
		for i := range ds {
			if ds[i], err = eco.GenerateDelta(d, sz.moves, sz.rewires, e.seed*1000+int64(i)); err != nil {
				return err
			}
		}
		mgr, deltas = m, ds
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.metrics.set("setup_s", setup, "s")

	var walls, tracedWalls, coverages, gens []float64
	var mem memTotals
	var q quality
	lay := sums{}
	tr := newTracer()
	var def, guide bytes.Buffer
	generate := func() (*db.Design, error) {
		t0 := time.Now()
		d, err := ispd.Generate(spec)
		gens = append(gens, time.Since(t0).Seconds())
		return d, err
	}

	start := time.Now()
	for i := 0; e.measuredFor(start, i, len(deltas)); i++ {
		v := i % len(deltas)
		d, err := generate()
		if err != nil {
			return nil, err
		}
		def.Reset()
		guide.Reset()
		runtime.GC()
		before := readMem()
		t0 := time.Now()
		out, err := flow.ECOFromCheckpoint(ctx, d, mgr, deltas[v], cfg, flow.ECOOptions{}, &def, &guide)
		wall := time.Since(t0).Seconds()
		mem.add(memSince(before))
		res.attempted++
		if err == nil {
			err = checkResult(d, out)
		}
		if err == nil {
			err = gate.check(v, out.Metrics)
		}
		if err != nil {
			e.gateFailure(res, "eco op %d (delta %d): %v", i, v, err)
			continue
		}
		if i < len(deltas) {
			q.add(out.Metrics)
		}
		walls = append(walls, wall)
		if !e.trace {
			continue
		}

		if d, err = generate(); err != nil {
			return nil, err
		}
		def.Reset()
		guide.Reset()
		runtime.GC()
		res.attempted++
		tw, cov, err := tracedECO(ctx, e, tr, i+1, spec, d, mgr, deltas[v], cfg, lay, &def, &guide, gate, v)
		if err != nil {
			e.gateFailure(res, "eco op %d (delta %d), traced: %v", i, v, err)
			continue
		}
		tracedWalls = append(tracedWalls, tw)
		coverages = append(coverages, cov)
	}

	r := res.metrics
	reportTimes(r, walls)
	q.report(r)
	mem.report(r)
	r.set("ispd.generate_s", mean(gens), "s")
	if e.trace {
		lay.report(r, len(tracedWalls))
		lay.reportYield(r)
		r.set("trace.overhead_frac", ratio(sum(tracedWalls), sum(walls))-1, "frac")
		r.set("trace.coverage_frac", mean(coverages), "frac")
		res.spans = tr.spans
	}
	return res, nil
}

// tracedECO makes the public calls flow.ECOFromCheckpoint makes —
// Manager.Latest, Snapshot.ViewState, RunECO — each in a span, checks the
// result against the untraced runs of the same delta, and adds the layer
// figures to lay. Outside the operation it times two probes on the same
// parent: view.Rebuild (which RunECO calls internally) and a durable
// Manager.Save of the parent snapshot. It returns the operation's wall time
// and the share of it the top-level spans cover.
func tracedECO(ctx context.Context, e *env, tr *tracer, op int, spec ispd.Spec, d *db.Design, mgr *checkpoint.Manager,
	delta *eco.Delta, cfg flow.Config, lay sums, def, guide io.Writer, gate repeatGate, input int) (float64, float64, error) {
	root := tr.begin(op, 0, "flow.eco_from_checkpoint")
	var snap *checkpoint.Snapshot
	var err error
	latest := tr.timed(op, root, "checkpoint.latest", func() { snap, _, err = mgr.Latest() })
	if err != nil {
		tr.end(root)
		return 0, 0, err
	}
	if snap.DesignName != d.Name || snap.Cells != len(d.Cells) || snap.Nets != len(d.Nets) {
		tr.end(root)
		return 0, 0, fmt.Errorf("checkpoint is for design %q, input is %q", snap.DesignName, d.Name)
	}
	var st view.State
	tr.timed(op, root, "checkpoint.view_state", func() { st = snap.ViewState() })
	var out *flow.Result
	tr.timed(op, root, "flow.run_eco", func() {
		out, err = flow.RunECO(ctx, d, &st, delta, cfg, flow.ECOOptions{}, def, guide)
	})
	wall := tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	if err := checkResult(d, out); err != nil {
		return 0, 0, err
	}
	if err := gate.check(input, out.Metrics); err != nil {
		return 0, 0, fmt.Errorf("traced run disagrees with untraced: %w", err)
	}

	fresh, err := ispd.Generate(spec)
	if err != nil {
		return 0, 0, err
	}
	rebuild := tr.timed(op, 0, "view.rebuild", func() { _, err = view.Rebuild(fresh, cfg.Grid, cfg.Global, st) })
	if err != nil {
		return 0, 0, fmt.Errorf("view.Rebuild: %w", err)
	}
	size, save, err := saveProbe(tr, op, filepath.Join(e.scratch, "save-probe"), snap)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint save: %w", err)
	}

	t := out.CRPStats.Times()
	lay.add("checkpoint.latest_s", latest.Seconds(), "s")
	lay.add("checkpoint.save_s", save.Seconds(), "s")
	lay.add("checkpoint.bytes", float64(size), "bytes")
	lay.add("view.rebuild_s", rebuild.Seconds(), "s")
	lay.add("eval.evaluate_s", out.Timings.DetailRoute.Seconds(), "s")
	lay.add("eval.drv", float64(out.Metrics.DRVs.Total()), "count")
	lay.addIterations(out.CRPStats.Iterations)
	lay.add("crp.candidate_estimates", float64(out.CRPStats.CandidateEstimates), "count")
	x := out.ECO
	lay.add("eco.dirty_cells", float64(x.DirtyCells), "count")
	lay.add("eco.rounds", float64(x.Rounds), "count")
	lay.add("eco.candidate_estimates", float64(x.CandidateEstimates), "count")
	lay.add("eco.full_run_frac", b2f(x.FullRun), "frac")
	lay.add("eco.halo_widened_frac", b2f(x.HaloWidened), "frac")
	lay.add("eco.unattributed_s", (wall - rebuild - t.Total() - out.Timings.DetailRoute).Seconds(), "s")
	return wall.Seconds(), tr.coverage(root), nil
}

// saveProbe durably saves snap into dir through a checkpoint.Manager and
// returns the checkpoint file's size and the Save time.
func saveProbe(tr *tracer, op int, dir string, snap *checkpoint.Snapshot) (int64, time.Duration, error) {
	m, err := checkpoint.Open(dir, 1)
	if err != nil {
		return 0, 0, err
	}
	d := tr.timed(op, 0, "checkpoint.save", func() { err = m.Save(snap) })
	if err != nil {
		return 0, 0, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(files) != 1 {
		return 0, 0, fmt.Errorf("expected one checkpoint file in %s, found %d", dir, len(files))
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		return 0, 0, err
	}
	return fi.Size(), d, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
