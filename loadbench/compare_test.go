package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

var testSpec = &benchSpec{
	EndToEnd: []metricSpec{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	},
	PerLayer: []metricSpec{{Name: "core.phaselt_ms", Unit: "ms", Better: "lower"}},
}

// results builds a results file whose one workload has an untraced run
// per (p50, rate) pair and one traced run reading phaselt.
func results(cpus int, phaselt float64, runs ...[2]float64) *resultsFile {
	wr := &workloadRuns{}
	for i, r := range runs {
		wr.Runs = append(wr.Runs, runRecord{Seed: int64(i + 1), Correct: true,
			Metrics: map[string]float64{"op_p50_ms": r[0], "ops_per_s": r[1]}})
	}
	wr.Runs = append(wr.Runs, runRecord{Seed: 1, Trace: true, Correct: true,
		Metrics: map[string]float64{"core.phaselt_ms": phaselt}})
	return &resultsFile{NumCPU: cpus, GOMAXPROCS: cpus, GoVersion: "go1.x", Workloads: map[string]*workloadRuns{"scan-resident": wr}}
}

func TestCompareGates(t *testing.T) {
	base := results(2, 40, [2]float64{50, 40}, [2]float64{52, 39}, [2]float64{48, 41})

	var out bytes.Buffer
	if err := compare(testSpec, base, results(2, 41, [2]float64{53, 38}, [2]float64{54, 37}, [2]float64{52, 38}), &out); err != nil {
		t.Fatalf("4%% slower within a 10%% bound: %v\n%s", err, out.String())
	}

	out.Reset()
	err := compare(testSpec, base, results(2, 60, [2]float64{60, 33}, [2]float64{61, 32}, [2]float64{59, 34}), &out)
	if err == nil || errors.Is(err, errRefused) {
		t.Fatalf("15%% slower: err = %v, want a regression", err)
	}
	if !strings.Contains(out.String(), "core.phaselt_ms") {
		t.Errorf("regressed workload prints no per-layer deltas:\n%s", out.String())
	}

	wrong := results(2, 40, [2]float64{50, 40})
	wrong.Workloads["scan-resident"].Runs[0].Correct = false
	if err := compare(testSpec, base, wrong, &out); err == nil {
		t.Error("a run with wrong replies passed the gate")
	}

	if err := compare(testSpec, base, results(4, 40, [2]float64{50, 40}), &out); !errors.Is(err, errRefused) {
		t.Errorf("different CPU count: err = %v, want errRefused", err)
	}
}
