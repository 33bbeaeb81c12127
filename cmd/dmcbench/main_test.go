package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run("", true, 0.01, 1, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneExperiment(t *testing.T) {
	if err := run("table1", false, 0.01, 1, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	if err := run("fig4", false, 0.01, 1, true, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV files written")
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", false, 0.01, 1, true, ""); err == nil {
		t.Error("missing -exp accepted")
	}
	if err := run("bogus", false, 0.01, 1, true, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestParseWorkerList(t *testing.T) {
	ws, err := parseWorkerList(" 1, 2,4 ")
	if err != nil || len(ws) != 3 || ws[0] != 1 || ws[1] != 2 || ws[2] != 4 {
		t.Fatalf("parseWorkerList = %v, %v", ws, err)
	}
	for _, bad := range []string{"", "0", "x", "1,-2"} {
		if _, err := parseWorkerList(bad); err == nil {
			t.Errorf("parseWorkerList(%q) accepted", bad)
		}
	}
}

// The grid must run end to end on a tiny scale, stamp every point with
// the scheduler width it ran under (workers for parallel engines, 1 for
// serial ones), and self-compare
// cleanly — the shape both CI jobs rely on.
func TestRunBenchJSONGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := runBenchJSON(path, 1e6, 0.01, 1, "NewsP", []int{2}); err != nil {
		t.Fatal(err)
	}
	doc, err := loadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]BenchPoint)
	for _, p := range doc.Points {
		byName[p.Name] = p
		switch p.Engine {
		case "serial":
			if p.GOMAXPROCS != 1 {
				t.Errorf("%s: gomaxprocs %d, want 1", p.Name, p.GOMAXPROCS)
			}
		case "parallel", "stream-parallel", "fleet":
			if p.GOMAXPROCS != p.Workers {
				t.Errorf("%s: gomaxprocs %d, want workers %d", p.Name, p.GOMAXPROCS, p.Workers)
			}
		default:
			t.Errorf("%s: unknown engine %q", p.Name, p.Engine)
		}
	}
	for _, want := range []string{"imp/default/serial", "imp/bitmap/w2", "sim/bitmap/serial", "sim/default/stream-w2", "imp/default/fleet-w2", "sim/default/fleet-w2"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("grid missing point %s", want)
		}
	}
	if err := compareBench(path, path, 0.15); err != nil {
		t.Fatalf("fresh grid does not self-compare: %v", err)
	}
	if err := runBenchJSON(path, 1e6, 0.01, 1, "nope", nil); err == nil {
		t.Error("unknown dataset accepted")
	}
}
