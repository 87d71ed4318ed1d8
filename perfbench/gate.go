package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/crp-eda/crp/internal/db"
	"github.com/crp-eda/crp/internal/eval"
	"github.com/crp-eda/crp/internal/flow"
)

// ecoLadder lists the "eco"-stage degradation kinds that record which rung
// of the ECO convergence ladder ran. They describe the incremental path the
// run took (reported as eco.* metrics), not a fault, so the gate accepts
// them; every other degradation is a breach.
var ecoLadder = map[string]bool{
	"halo-widened":      true,
	"full-run-fallback": true,
	"frontier-active":   true,
}

// checkResult is the correctness gate for one operation: the final
// placement is legal, no stage degraded, and detailed routing ran to the end.
func checkResult(d *db.Design, res *flow.Result) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("final placement: %w", err)
	}
	if res.Metrics.Truncated {
		return errors.New("detailed routing was truncated")
	}
	for _, dg := range res.Degradations {
		if !ladderStep(dg.Stage, dg.Kind) {
			return fmt.Errorf("degraded: %s", dg)
		}
	}
	return nil
}

// ladderStep reports whether a degradation only records an ECO ladder rung.
func ladderStep(stage, kind string) bool { return stage == "eco" && ecoLadder[kind] }

// checkDegradations applies the degradation gate to the strings a crpd job
// persists in result.json, each a flow.Degradation's String(): "[stage]
// kind: detail".
func checkDegradations(dgs []string) error {
	for _, s := range dgs {
		stage, rest, _ := strings.Cut(strings.TrimPrefix(s, "["), "] ")
		kind, _, _ := strings.Cut(rest, ":")
		if !ladderStep(stage, kind) {
			return fmt.Errorf("degraded: %s", s)
		}
	}
	return nil
}

// repeatGate remembers the eval.Metrics each input first produced; a later
// operation on the same input must reproduce them byte for byte.
type repeatGate map[int][]byte

func (g repeatGate) check(input int, m eval.Metrics) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	first, seen := g[input]
	if !seen {
		g[input] = b
		return nil
	}
	if !bytes.Equal(first, b) {
		return fmt.Errorf("input %d: metrics differ from its first run (wirelength %d, vias %d)", input, m.WirelengthDBU, m.Vias)
	}
	return nil
}

// sameBytes is the cache-hit gate: a job served from the result cache must
// return its original job's output byte for byte.
func sameBytes(what string, original, served []byte) error {
	if !bytes.Equal(original, served) {
		return fmt.Errorf("%s: %d bytes served, %d bytes in the original", what, len(served), len(original))
	}
	return nil
}
