package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// errRefused marks a comparison of results that describe different
// experiments: another CPU count, GOMAXPROCS or Go version. It is not a
// regression, and exits 3 instead of 1.
var errRefused = errors.New("refusing to compare")

// resultsFile accumulates runs, stamped with what they ran on.
type resultsFile struct {
	NumCPU     int                      `json:"num_cpu"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	GoVersion  string                   `json:"go_version"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Runs []runRecord `json:"runs"`
	// Summary is each metric over the runs: the median and the spread
	// between the quartiles as a share of it.
	Summary map[string]summary `json:"summary"`
}

type runRecord struct {
	Seed    int64              `json:"seed"`
	Trace   bool               `json:"trace"`
	Correct bool               `json:"correct"`
	Metrics map[string]float64 `json:"metrics"`
}

type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func summarize(runs []runRecord, trace bool) map[string]summary {
	vals := map[string][]float64{}
	for _, r := range runs {
		if r.Trace != trace {
			continue
		}
		for n, v := range r.Metrics {
			vals[n] = append(vals[n], v)
		}
	}
	out := map[string]summary{}
	for n, xs := range vals {
		q1, q3 := quartiles(xs)
		med := median(xs)
		var spread float64
		if med != 0 {
			spread = (q3 - q1) / med
		}
		out[n] = summary{N: len(xs), Median: med, Q1: q1, Q3: q3, Spread: spread}
	}
	return out
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// record adds one run to the results file at path, creating it.
func record(path string, cfg runConfig, rep *report) error {
	f, err := loadResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultsFile{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}, nil
	}
	if err != nil {
		return err
	}
	if f.NumCPU != runtime.NumCPU() || f.GOMAXPROCS != runtime.GOMAXPROCS(0) || f.GoVersion != runtime.Version() {
		return fmt.Errorf("%s holds runs from %d CPUs, GOMAXPROCS %d, %s; this run is another experiment", path, f.NumCPU, f.GOMAXPROCS, f.GoVersion)
	}
	if f.Workloads == nil {
		f.Workloads = map[string]*workloadRuns{}
	}
	wr := f.Workloads[cfg.workload]
	if wr == nil {
		wr = &workloadRuns{}
		f.Workloads[cfg.workload] = wr
	}
	rr := runRecord{Seed: cfg.seed, Trace: cfg.trace, Correct: rep.Correct, Metrics: map[string]float64{}}
	for n, m := range rep.Metrics {
		rr.Metrics[n] = m.Value
	}
	wr.Runs = append(wr.Runs, rr)
	wr.Summary = summarize(wr.Runs, false)
	for n, s := range summarize(wr.Runs, true) {
		wr.Summary[n] = s
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the gate reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worse is how much worse cur is than base, as a share of base: positive
// is a regression.
func worse(m metricSpec, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// compareFiles gates the results file CURRENT against BASE ("BASE,CURRENT")
// by the bounds in the spec at specPath.
func compareFiles(pair, specPath string, w io.Writer) error {
	basePath, curPath, ok := strings.Cut(pair, ",")
	if !ok {
		return fmt.Errorf("-compare wants BASE,CURRENT, got %q", pair)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	cur, err := loadResults(curPath)
	if err != nil {
		return err
	}
	return compare(spec, base, cur, w)
}

func compare(spec *benchSpec, base, cur *resultsFile, w io.Writer) error {
	if base.NumCPU != cur.NumCPU || base.GOMAXPROCS != cur.GOMAXPROCS || base.GoVersion != cur.GoVersion {
		return fmt.Errorf("%w: base ran on %d CPUs, GOMAXPROCS %d, %s; current on %d, %d, %s",
			errRefused, base.NumCPU, base.GOMAXPROCS, base.GoVersion, cur.NumCPU, cur.GOMAXPROCS, cur.GoVersion)
	}
	names := make([]string, 0, len(base.Workloads))
	for n := range base.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		bw, cw := base.Workloads[name], cur.Workloads[name]
		if cw == nil {
			failures = append(failures, name+": missing from current")
			fmt.Fprintf(w, "%-14s MISSING from current\n", name)
			continue
		}
		for _, run := range cw.Runs {
			if !run.Correct {
				failures = append(failures, fmt.Sprintf("%s seed %d: wrong or failed replies", name, run.Seed))
			}
		}
		bs, cs := summarize(bw.Runs, false), summarize(cw.Runs, false)
		regressed := false
		for _, m := range spec.EndToEnd {
			b, c := bs[m.Name], cs[m.Name]
			if b.N == 0 {
				continue
			}
			if c.N == 0 {
				failures = append(failures, fmt.Sprintf("%s %s: missing from current", name, m.Name))
				continue
			}
			d := worse(m, b.Median, c.Median)
			verdict := "ok"
			if d > m.Bound {
				verdict = "REGRESSED"
				regressed = true
				failures = append(failures, fmt.Sprintf("%s %s: %.4g -> %.4g %s (%.1f%% worse, bound %.0f%%)",
					name, m.Name, b.Median, c.Median, m.Unit, 100*d, 100*m.Bound))
			}
			fmt.Fprintf(w, "%-14s %-14s %12.4g -> %12.4g %-4s %+6.1f%% worse  %s\n",
				name, m.Name, b.Median, c.Median, m.Unit, 100*d, verdict)
		}
		if regressed {
			bl, cl := summarize(bw.Runs, true), summarize(cw.Runs, true)
			fmt.Fprintf(w, "%-14s per-layer medians of the traced runs:\n", name)
			for _, m := range spec.PerLayer {
				b, c := bl[m.Name], cl[m.Name]
				if b.N == 0 || c.N == 0 || (b.Median == 0 && c.Median == 0) {
					continue
				}
				fmt.Fprintf(w, "    %-40s %12.4g -> %12.4g %-8s %+6.1f%% worse\n",
					m.Name, b.Median, c.Median, m.Unit, 100*worse(m, b.Median, c.Median))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regressions:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "all %d workloads within their bounds\n", len(names))
	return nil
}
