package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/gen"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/server"
	"dmc/internal/store"
	"dmc/internal/stream"
)

// The bench-JSON mode is the machine-readable performance trajectory:
// one fixed grid of engine × variant × worker-count points over NewsP
// (the paper's §6.2 comparison set), written as BENCH_dmc.json so runs
// from different commits can be diffed. The grid mirrors
// BenchmarkDMCParallel in bench_test.go; this standalone driver exists
// because a main program cannot set -benchtime programmatically, and CI
// wants a one-command artifact.

// BenchFile is the top-level JSON document.
type BenchFile struct {
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Dataset    string       `json:"dataset"`
	Rows       int          `json:"rows"`
	Cols       int          `json:"cols"`
	Scale      float64      `json:"scale"`
	Seed       int64        `json:"seed"`
	BenchTime  string       `json:"bench_time"`
	Points     []BenchPoint `json:"points"`
}

// BenchPoint is one measured cell of the grid. Engine "serial" is the
// single-threaded pipeline; "parallel" is the §7 column-partitioned one
// at the given worker count; "stream-parallel" mines from disk through
// the framed spill codec with prefetch and worker fan-out. Variant
// "bitmap" forces the DMC-bitmap switch for the last 4,096 rows
// regardless of counter memory (whole-run on smaller sets).
// GOMAXPROCS is the scheduler width the point ran under — set to the
// worker count for parallel engines, 1 for serial ones — and is part of the point's identity: -compare refuses to
// compare points measured at different widths, because a w4 number from
// a 1-core box and one from a 16-core box are different experiments.
// PeakCounterBytes and TailBitmapBytes follow the paper's memory model
// (core.Stats), not the Go heap; BytesPerOp/AllocsPerOp are real
// allocator traffic. RowsPerSec/MBPerSec are set only for the streaming
// engines: rows and input bytes counted once per pass over the data
// (one partitioning pass plus two replay passes per mine).
type BenchPoint struct {
	Name             string  `json:"name"`
	Mode             string  `json:"mode"`    // imp | sim
	Variant          string  `json:"variant"` // default | bitmap
	Engine           string  `json:"engine"`  // serial | parallel | stream-parallel | fleet
	Workers          int     `json:"workers"`
	GOMAXPROCS       int     `json:"gomaxprocs,omitempty"`
	Iters            int     `json:"iters"`
	NsPerOp          int64   `json:"ns_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	Rules            int     `json:"rules"`
	RulesPerSec      float64 `json:"rules_per_sec"`
	RowsPerSec       float64 `json:"rows_per_sec,omitempty"`
	MBPerSec         float64 `json:"mb_per_sec,omitempty"`
	PeakCounterBytes int     `json:"peak_counter_bytes"`
	TailBitmapBytes  int     `json:"tail_bitmap_bytes"`
}

// runBenchJSON measures the full grid over the named generator dataset
// and writes the document to path. workers is the parallel sweep (each
// count is measured under GOMAXPROCS equal to it); the default grid is
// NewsP with workers 1,2,4, and the ≥10⁶-row truth run is
// -bench-dataset Bench -scale 1.
func runBenchJSON(path string, benchTime time.Duration, scale float64, seed int64, dataset string, workers []int) error {
	cfg := gen.Config{Scale: scale, Seed: seed}
	if scale <= 0 {
		scale = 0.05 // the generator default, recorded explicitly
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	ds, ok := gen.ByName(dataset, cfg)
	if !ok {
		return fmt.Errorf("unknown -bench-dataset %q", dataset)
	}
	m := ds.M
	th := core.FromPercent(85)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		// Forced switch for the last 4,096 rows regardless of counter
		// memory: the run exercises the DMC-bitmap endgame and the shared
		// tail build without materializing a whole-dataset bitmap (on a
		// 2^20-row set that would be ~512 bytes per live column per
		// worker-phase — a memory benchmark, not a kernel one).
		{"bitmap", core.Options{BitmapMaxRows: 4096, BitmapMinBytes: -1}},
	}

	doc := BenchFile{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Dataset:    ds.Name,
		Rows:       m.NumRows(),
		Cols:       m.NumCols(),
		Scale:      scale,
		Seed:       seed,
		BenchTime:  benchTime.String(),
	}

	for _, v := range variants {
		for _, mode := range []string{"imp", "sim"} {
			runs := mineRuns(m, th, v.opts, mode, workers)
			for _, r := range runs {
				p := measureAt(r, benchTime)
				p.Mode, p.Variant = mode, v.name
				p.Name = fmt.Sprintf("%s/%s/%s", mode, v.name, r.label)
				doc.Points = append(doc.Points, p)
				fmt.Printf("%-28s %12d ns/op %10d B/op %8d allocs/op %10.0f rules/s  procs=%d\n",
					p.Name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp, p.RulesPerSec, p.GOMAXPROCS)
			}
		}
	}

	// The out-of-core grid: the same dataset written to disk and mined
	// through the streaming engine at each worker count. Default variant
	// only — the disk path dominates here, not the bitmap switch.
	tmp, err := os.MkdirTemp("", "dmcbench-stream-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	mpath := filepath.Join(tmp, ds.Name+matrix.ExtBinary)
	if err := matrix.Save(mpath, m); err != nil {
		return err
	}
	fi, err := os.Stat(mpath)
	if err != nil {
		return err
	}
	// Each mine streams the data three times: one partitioning pass over
	// the input plus two replay passes over the spills.
	rowsPerMine := 3 * m.NumRows()
	mbPerMine := 3 * float64(fi.Size()) / 1e6
	for _, mode := range []string{"imp", "sim"} {
		for _, r := range streamRuns(mpath, th, mode, workers) {
			p := measureAt(r, benchTime)
			p.Mode, p.Variant = mode, "default"
			p.Name = fmt.Sprintf("%s/default/%s", mode, r.label)
			secPerOp := float64(p.NsPerOp) / 1e9
			p.RowsPerSec = float64(rowsPerMine) / secPerOp
			p.MBPerSec = mbPerMine / secPerOp
			doc.Points = append(doc.Points, p)
			fmt.Printf("%-28s %12d ns/op %10d B/op %8d allocs/op %10.0f rows/s %8.1f MB/s  procs=%d\n",
				p.Name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp, p.RowsPerSec, p.MBPerSec, p.GOMAXPROCS)
		}
	}

	// The fleet grid: the same mine scattered over N in-process worker
	// nodes on loopback TCP — real HTTP, real replica pushes, real
	// scatter-gather merge. On a single-CPU host every "node" shares the
	// same core, so these points measure the coordination overhead the
	// fleet adds (task fan-out, payload parse, canonical re-sort), not a
	// scale-out speedup; GOMAXPROCS is still pinned to the node count so
	// a multi-core run of the same grid reads as the real thing.
	for _, mode := range []string{"imp", "sim"} {
		for _, w := range workers {
			bf, err := startBenchFleet(m, w)
			if err != nil {
				return fmt.Errorf("fleet grid: %w", err)
			}
			r := fleetRun(bf, th, mode, w)
			p := measureAt(r, benchTime)
			bf.close()
			p.Mode, p.Variant = mode, "default"
			p.Name = fmt.Sprintf("%s/default/%s", mode, r.label)
			doc.Points = append(doc.Points, p)
			fmt.Printf("%-28s %12d ns/op %10d B/op %8d allocs/op %10.0f rules/s  procs=%d\n",
				p.Name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp, p.RulesPerSec, p.GOMAXPROCS)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchFleet is one measured fleet topology: n worker servers on
// loopback listeners behind a coordinator, with the dataset
// content-addressed for replica pushes.
type benchFleet struct {
	c    *fleet.Coordinator
	reg  *fleet.Registry
	ref  fleet.DatasetRef
	lns  []net.Listener
	srvs []*http.Server
}

func startBenchFleet(m *matrix.Matrix, n int) (*benchFleet, error) {
	bf := &benchFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			bf.close()
			return nil, err
		}
		ws := server.NewWith(server.Config{
			FleetWorker: true,
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		srv := &http.Server{Handler: ws.Handler()}
		go srv.Serve(ln)
		bf.lns = append(bf.lns, ln)
		bf.srvs = append(bf.srvs, srv)
		urls[i] = "http://" + ln.Addr().String()
	}
	reg, err := fleet.NewRegistry(urls, obs.NewRegistry())
	if err != nil {
		bf.close()
		return nil, err
	}
	bf.reg = reg
	bf.c = fleet.NewCoordinator(reg, fleet.Options{})
	hash, err := store.ContentHash(m)
	if err != nil {
		bf.close()
		return nil, err
	}
	bf.ref = fleet.DatasetRef{Name: "bench", Hash: hash, M: m}
	return bf, nil
}

func (bf *benchFleet) close() {
	if bf.reg != nil {
		bf.reg.Close()
	}
	for _, srv := range bf.srvs {
		srv.Close()
	}
	for _, ln := range bf.lns {
		ln.Close()
	}
}

// fleetRun builds the mineRun for one fleet point: every op is a full
// scatter-gather mine (each worker node re-mines its shard — no result
// caching is configured, so iterations measure work, not cache hits).
// Workers: 1 keeps each node single-threaded; the node count is the
// parallelism.
func fleetRun(bf *benchFleet, th core.Threshold, mode string, nodes int) mineRun {
	ctx := context.Background()
	p := fleet.Params{ThresholdPercent: 85, Workers: 1}
	return mineRun{label: fmt.Sprintf("fleet-w%d", nodes), engine: "fleet", workers: nodes, procs: nodes, f: func() (int, int, int) {
		if mode == "imp" {
			rs, _, err := bf.c.MineImplications(ctx, bf.ref, p)
			if err != nil {
				panic(err)
			}
			return len(rs), 0, 0
		}
		rs, _, err := bf.c.MineSimilarities(ctx, bf.ref, p)
		if err != nil {
			panic(err)
		}
		return len(rs), 0, 0
	}}
}

// mineRun is one engine point: f runs a full mine and reports the rule
// count plus the model-memory stats. procs is the GOMAXPROCS width the
// point is measured under — the worker count for parallel engines, 1
// for serial ones, so "serial" is truly serial even on a big machine
// and "w4" means four schedulable procs wherever the grid runs.
type mineRun struct {
	label   string
	engine  string
	workers int
	procs   int
	f       func() (rules, peak, tail int)
}

// measureAt pins GOMAXPROCS to the run's width for the duration of the
// measurement, restores it, and stamps the width into the point.
func measureAt(r mineRun, benchTime time.Duration) BenchPoint {
	prev := runtime.GOMAXPROCS(r.procs)
	p := measure(r.f, benchTime)
	runtime.GOMAXPROCS(prev)
	p.Engine, p.Workers, p.GOMAXPROCS = r.engine, r.workers, r.procs
	return p
}

func mineRuns(m *matrix.Matrix, th core.Threshold, opts core.Options, mode string, workers []int) []mineRun {
	runs := []mineRun{{label: "serial", engine: "serial", workers: 1, procs: 1, f: func() (int, int, int) {
		if mode == "imp" {
			rs, st := core.DMCImp(m, th, opts)
			return len(rs), st.PeakCounterBytes, st.TailBitmapBytes
		}
		rs, st := core.DMCSim(m, th, opts)
		return len(rs), st.PeakCounterBytes, st.TailBitmapBytes
	}}}
	for _, w := range workers {
		w := w
		runs = append(runs, mineRun{label: fmt.Sprintf("w%d", w), engine: "parallel", workers: w, procs: w, f: func() (int, int, int) {
			if mode == "imp" {
				rs, st := core.DMCImpParallel(m, th, opts, w)
				return len(rs), st.PeakCounterBytes, st.TailBitmapBytes
			}
			rs, st := core.DMCSimParallel(m, th, opts, w)
			return len(rs), st.PeakCounterBytes, st.TailBitmapBytes
		}})
	}
	return runs
}

// streamRuns is the disk-path grid for one mode: the framed codec with
// double-buffered prefetch at increasing worker counts.
func streamRuns(path string, th core.Threshold, mode string, workers []int) []mineRun {
	mine := func(cfg stream.Config) (int, int, int) {
		if mode == "imp" {
			rs, st, err := stream.MineImplicationsCfg(path, th, core.Options{}, cfg)
			if err != nil {
				panic(err)
			}
			return len(rs), st.PeakCounterBytes, st.TailBitmapBytes
		}
		rs, st, err := stream.MineSimilaritiesCfg(path, th, core.Options{}, cfg)
		if err != nil {
			panic(err)
		}
		return len(rs), st.PeakCounterBytes, st.TailBitmapBytes
	}
	var runs []mineRun
	for _, w := range workers {
		w := w
		runs = append(runs, mineRun{label: fmt.Sprintf("stream-w%d", w), engine: "stream-parallel", workers: w, procs: w, f: func() (int, int, int) {
			return mine(stream.Config{Workers: w})
		}})
	}
	return runs
}

// measure runs f over several timed rounds totalling at least benchTime
// and reports the FASTEST round's per-op figures — the min-time
// estimator. Scheduling hiccups, GC pauses and noisy neighbours only
// ever slow a round down, so the minimum is the stablest estimate of
// the code's true cost, and the -compare regression gate only trips on
// slowdowns that reproduce in every round. Allocation counts come from
// runtime.MemStats deltas across all rounds, the same accounting the
// testing package uses; one GC beforehand keeps a previous point's
// garbage out of this one.
func measure(f func() (rules, peak, tail int), benchTime time.Duration) BenchPoint {
	f() // warm-up: page in the dataset, grow the heap once
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 3
	roundTime := benchTime / rounds
	var rules, peak, tail, totalIters int
	var bestNsPerOp float64
	for r := 0; r < rounds; r++ {
		iters := 0
		start := time.Now()
		elapsed := time.Duration(0)
		for ; elapsed < roundTime || iters == 0; elapsed = time.Since(start) {
			rules, peak, tail = f()
			iters++
		}
		totalIters += iters
		if nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters); r == 0 || nsPerOp < bestNsPerOp {
			bestNsPerOp = nsPerOp
		}
	}
	runtime.ReadMemStats(&after)
	p := BenchPoint{
		Iters:            totalIters,
		NsPerOp:          int64(bestNsPerOp),
		BytesPerOp:       int64(after.TotalAlloc-before.TotalAlloc) / int64(totalIters),
		AllocsPerOp:      int64(after.Mallocs-before.Mallocs) / int64(totalIters),
		Rules:            rules,
		PeakCounterBytes: peak,
		TailBitmapBytes:  tail,
	}
	if bestNsPerOp > 0 {
		p.RulesPerSec = float64(rules) * 1e9 / bestNsPerOp
	}
	return p
}
