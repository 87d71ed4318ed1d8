package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/crp-eda/crp/internal/flow"
	"github.com/crp-eda/crp/internal/ispd"
)

// tinySizes shrinks every workload so a smoke run takes about a second.
var tinySizes = sizes{
	flowSmall: flowSize{setups: 1, scale: 0.0005, variants: 2, k: 2},
	flowLarge: flowSize{setups: 1, scale: 0.001, variants: 2, k: 2},
	eco:       ecoSize{setups: 1, scale: 0.001, k: 2, deltas: 2, moves: 2, rewires: 1},
	svc:       svcSize{setups: 1, cells: 60, nets: 50, k: 1, moves: 2, rewires: 1, qualityJobs: 3},
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     designDoc.DefaultSeed,
		seconds:  200 * time.Millisecond,
		trace:    trace,
		root:     "..",
		out:      t.TempDir(),
		commit:   "test",
		sizes:    tinySizes,
	}
}

func benchmarkSpec(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed with
// its unit, that the workload measured (not zero-filled) every metric
// design.json says its layers exercise, and that the gate passed.
func TestSmokeEveryWorkload(t *testing.T) {
	bench := benchmarkSpec(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, name, trace)
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				if code := execute(o, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got struct {
					Correct   bool      `json:"correct"`
					Attempted int       `json:"attempted"`
					Failed    int       `json:"failed"`
					Metrics   metricSet `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("result %+v", got)
				}
				list := bench.EndToEnd
				if trace {
					list = bench.PerLayer
				}
				if len(got.Metrics) != len(list) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(got.Metrics), len(list))
				}
				for _, m := range list {
					v, ok := got.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
					}
					if !strings.Contains(stdout.String(), "metric "+m.Name+" ") {
						t.Errorf("metric %s has no printed line", m.Name)
					}
				}
			})
		}
		t.Run(name+"/measured", func(t *testing.T) {
			o := tinyOptions(t, name, true)
			res, err := measure(&env{options: o, scratch: t.TempDir(), log: &bytes.Buffer{}})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range bench.PerLayer {
				if _, ok := res.metrics[m.Name]; designDoc.measuredOn(m.Name, name) && !ok {
					t.Errorf("design.json says %s is measured on %s, but the run did not measure it", m.Name, name)
				}
			}
			if len(res.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestDesignMap checks design.json against BENCHMARK.json: one entry per
// per-layer metric, each naming real workloads and end-to-end metrics.
func TestDesignMap(t *testing.T) {
	bench := benchmarkSpec(t)
	e2e := map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	if len(designDoc.PerLayer) != len(bench.PerLayer) {
		t.Errorf("design.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(designDoc.PerLayer), len(bench.PerLayer))
	}
	for _, m := range bench.PerLayer {
		entry, ok := designDoc.PerLayer[m.Name]
		if !ok || len(entry.MeasuredOn) == 0 {
			t.Errorf("%s: no design.json entry naming where it is measured", m.Name)
			continue
		}
		for _, w := range entry.MeasuredOn {
			if workloads[w] == nil {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
		for _, mv := range entry.Moves {
			metric, w, _ := strings.Cut(mv, "@")
			if !e2e[metric] || workloads[w] == nil {
				t.Errorf("%s: moves %q names no end-to-end metric on a workload", m.Name, mv)
			}
		}
	}
	if designDoc.DefaultSeed == designDoc.HeldOutSeed {
		t.Error("the held-out seed must differ from the default seed")
	}
}

// TestGateRejectsOverlap builds a legal result, then makes two cells
// overlap: the gate must pass the first and reject the second.
func TestGateRejectsOverlap(t *testing.T) {
	d, err := ispd.Generate(variantSpecs(tinySizes.flowSmall.scale, 1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	res := flow.RunCRP(context.Background(), d, 1, flow.DefaultConfig())
	if err := checkResult(d, res); err != nil {
		t.Fatalf("gate rejects a legal result: %v", err)
	}
	for _, a := range d.Cells {
		for _, b := range d.Cells {
			if a.ID != b.ID && !a.Fixed && !b.Fixed && a.Row == b.Row && b.Pos.X > a.Pos.X {
				a.Pos.X = b.Pos.X
				err := checkResult(d, res)
				if err == nil || !strings.Contains(err.Error(), "overlap") {
					t.Fatalf("gate passed two overlapping cells: %v", err)
				}
				return
			}
		}
	}
	t.Fatal("no two movable cells share a row")
}

// TestGateRejectsDifferentCacheHit runs a client's fresh job, alters the
// DEF the client recorded for it, and repeats the job: the cache-hit
// output no longer matches, so the gate must fail the repeat.
func TestGateRejectsDifferentCacheHit(t *testing.T) {
	o := tinyOptions(t, "svc", false)
	e := &env{options: o, scratch: t.TempDir(), log: &bytes.Buffer{}}
	dm, err := startDaemon(filepath.Join(e.scratch, "crpd"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.stop()
	c := &client{dm: dm, e: e, rng: newScriptRand(e.seed, 0)}
	if err := c.do(kindFresh); err != nil {
		t.Fatal(err)
	}
	if err := c.do(kindRepeat); err != nil {
		t.Fatalf("gate rejects a faithful cache hit: %v", err)
	}
	if !c.jobs[1].hit {
		t.Fatal("the repeat was not served from the cache")
	}
	c.fresh[0].def = append([]byte("# altered\n"), c.fresh[0].def...)
	err = c.do(kindRepeat)
	if err == nil || !strings.Contains(err.Error(), "out.def") {
		t.Fatalf("gate passed a cache hit whose DEF differs from the original: %v", err)
	}
}

// TestGateChecksStoredJobs runs a fresh and an ECO job, checks that their
// stored outcomes pass the gate, then marks one degraded and spoils the
// other's DEF: the gate must fail both.
func TestGateChecksStoredJobs(t *testing.T) {
	o := tinyOptions(t, "svc", false)
	e := &env{options: o, scratch: t.TempDir(), log: &bytes.Buffer{}}
	dm, err := startDaemon(filepath.Join(e.scratch, "crpd"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.stop()
	c := &client{dm: dm, e: e, rng: newScriptRand(e.seed, 0)}
	for _, kind := range []string{kindFresh, kindECO} {
		if err := c.do(kind); err != nil {
			t.Fatal(err)
		}
	}
	var lib designLib
	for _, j := range c.jobs {
		if err := j.verify(&lib); err != nil {
			t.Fatalf("gate rejects a faithful %s job: %v", j.kind, err)
		}
	}
	result := filepath.Join(c.jobs[0].dir, "result.json")
	if err := os.WriteFile(result, []byte(`{"degradations":["[eco] halo-widened: ok","[crp] selection-fallback: forced"]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := c.jobs[0].verify(&lib); err == nil || !strings.Contains(err.Error(), "selection-fallback") {
		t.Fatalf("gate passed a degraded job: %v", err)
	}
	def := filepath.Join(c.jobs[1].dir, "out.def")
	raw, err := os.ReadFile(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(def, raw[:len(raw)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if err := c.jobs[1].verify(&lib); err == nil {
		t.Fatal("gate passed a truncated out.def")
	}
}

// TestRunRejectsBadFlags checks the command refuses to run without a
// known workload.
func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
