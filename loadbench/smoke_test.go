package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// spec reads the benchmark definition from the checkout root.
func spec(t *testing.T) (workloads []string, metrics *benchSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, &s.benchSpec
}

// tinyConfig runs w at gen.Bench's floor size (4,096 rows × 256
// columns) with a 1s window, one set-up and a short traced run.
func tinyConfig(t *testing.T, name string) runConfig {
	return runConfig{
		workload: name, seed: 3, window: time.Second, trace: true, dir: t.TempDir(),
		scale: 1.0 / 256, setups: 1, appendBatches: minOps, traceOps: 16,
	}
}

// TestLoadWorkloadsSmoke runs every workload of BENCHMARK.json in
// process at a tiny scale, traced, and checks that every metric the
// benchmark defines comes out finite, that no reply failed the oracle,
// and that the shadow pipeline took the rung each reply reports.
func TestLoadWorkloadsSmoke(t *testing.T) {
	names, ms := spec(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(names), len(workloads))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, r, err := execute(tinyConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.failures {
				t.Error(f)
			}
			if res.attempted == 0 {
				t.Error("no ops attempted")
			}
			e2e, layers := map[string]metric{}, map[string]metric{}
			if err := r.endToEnd(res, e2e); err != nil {
				t.Fatal(err)
			}
			if err := r.perLayer(res, layers); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				specs []metricSpec
				got   map[string]metric
			}{{ms.EndToEnd, e2e}, {ms.PerLayer, layers}} {
				for _, s := range c.specs {
					m, ok := c.got[s.Name]
					if !ok || m.Unit != s.Unit || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
						t.Errorf("metric %s = %+v, present %v; BENCHMARK.json unit %s", s.Name, m, ok, s.Unit)
					}
				}
				if len(c.got) != len(c.specs) {
					t.Errorf("emitted %d metrics, BENCHMARK.json defines %d", len(c.got), len(c.specs))
				}
			}
			for _, s := range ms.EndToEnd {
				if e2e[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, e2e[s.Name].Value)
				}
			}
		})
	}
}

// TestLoadOracleCatchesWrongReference corrupts one reference rule list
// before the clock starts: every reply for that key must then count as
// failed.
func TestLoadOracleCatchesWrongReference(t *testing.T) {
	cfg := tinyConfig(t, "scan-resident")
	cfg.trace = false
	victim := keys[2]
	cfg.tamper = func(r *run) {
		wt := r.oracle[victim]
		bad := strings.Replace(string(wt.suffix), "\"hits\": ", "\"hits\": 1", 1)
		if bad == string(wt.suffix) {
			t.Fatalf("%v has no rules to corrupt", victim)
		}
		wt.suffix = []byte(bad)
		r.oracle[victim] = wt
	}
	res, _, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) == 0 {
		t.Fatal("a corrupted reference produced no failure")
	}
	for _, f := range res.failures {
		if !strings.Contains(f, victim.String()) {
			t.Errorf("failure for an intact key: %s", f)
		}
	}
}
