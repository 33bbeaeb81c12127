// Command loadbench is the end-to-end benchmark of the dmc server: a
// closed-loop HTTP load against an in-process server.NewWith on a
// loopback listener, configured like dmcserve's defaults, with every
// reply checked against a reference rule set the bench computes itself.
// BENCHMARK.json at the repository root defines its workloads and
// metrics; run.sh in this directory builds and runs it:
//
//	bash loadbench/run.sh --workload scan-resident --seed 1 --seconds 20 --trace 0
//
// One invocation runs one workload in one process. It generates the
// data from gen.Bench and the seed, computes the references, then sets
// up the server three times (registering the dataset and making one
// warm-up pass over the workload's keys; setup_s is the median), runs
// the measured window of --seconds with one client connection that
// sends its next request only after the last reply arrived, and prints
// the metrics one per line and, last, one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones: setup_s,
// op_p50_ms and op_p90_ms (send to last byte; a failed op counts as
// +Inf), ops_per_s and peak_heap_mb (the maximum of the live heap,
// sampled every 50ms of the window). An op is a mine, except in
// append-mix, where it is a row append; there each append is followed
// by one mine, which must return exactly the rules of the data as of
// that append.
//
// One client, not one per CPU: on a 2-CPU guest with a busy loop on
// one CPU, a two-client cache-hot lost 45% of its mines per second and
// doubled its p90, since both requests then queue for the CPU left,
// while the one-client run did not slow at all.
//
// With --trace 1 the run adds a traced run of 64 ops — each op over
// HTTP, then replayed through the layers' public functions by a shadow
// pipeline, one span per call — and the metrics are the per-layer
// ledger instead: mean self time per op of each layer's spans,
// server.unattributed_ms for the part of the HTTP time the spans do not
// cover (it reads slightly below zero when the replays ran slower than
// the server's own calls), and counts from /v1/metrics over the
// measured window. A failed or wrong reply counts in "failed" and makes
// the exit status 1.
//
// Results can be kept and gated:
//
//	loadbench ... -out results.json              # add this run to a results file
//	loadbench -compare base.json,current.json    # gate current against base
//
// -compare takes the median of each (workload, end-to-end metric) over
// a file's runs and fails (exit 1) when current is worse than base by
// more than the metric's bound in BENCHMARK.json, printing the traced
// per-layer deltas of every regressed workload. Results from a
// different CPU count, GOMAXPROCS or Go version are refused (exit 3).
//
// baseline/set1.json and baseline/set2.json are two such files, each
// ten untraced runs (seeds 1-10, then 11-20) and one traced run per
// workload, recorded one after the other on a 2-CPU Firecracker guest
// (Xeon, GOMAXPROCS 2, go1.24.0). The spread between quartiles of a
// set's ten runs was 0.05-0.22 of the median for the time metrics and
// at most 0.03 for peak heap. The sets' medians of the op metrics
// differ by at most 12%, except on append-mix, where set 2 ran 18-22%
// faster, and setup_s moved by up to 17%. That floor is the
// guest's, not the benchmark's: the process's CPU time per op moved
// with its wall time, steal time stayed under 1%, and runs of the same
// seed minutes apart differed by as much as runs of different seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = fs.Int64("seed", 1, "seed the data and key draws are generated from")
		seconds = fs.Int("seconds", 15, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics instead of the end-to-end ones")
		dir     = fs.String("dir", os.TempDir(), "directory the run's files are created under (removed at exit)")
		out     = fs.String("out", "", "also add this run to the named results file")
		compare = fs.String("compare", "", "BASE,CURRENT: gate the results file CURRENT against BASE by the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		err := compareFiles(*compare, "BENCHMARK.json", stdout)
		switch {
		case errors.Is(err, errRefused):
			fmt.Fprintln(stderr, "loadbench:", err)
			return 3
		case err != nil:
			fmt.Fprintln(stderr, "loadbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *name == "" {
		fmt.Fprintln(stderr, "loadbench: need -workload, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	if _, err := workloadByName(*name); err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*dir, "loadbench-")
	if err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := defaultConfig(*name, *seed, *seconds, *trace == 1, tmp)
	rep, err := runReport(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	for _, l := range rep.lines() {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "loadbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if *out != "" {
		if err := record(*out, cfg, rep); err != nil {
			fmt.Fprintln(stderr, "loadbench:", err)
			return 1
		}
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runReport executes cfg and assembles its report, printing the first
// failures to stderr.
func runReport(cfg runConfig, stderr io.Writer) (*report, error) {
	res, r, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(stderr, "... and %d more failures\n", len(res.failures)-10)
			break
		}
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	rep, err := r.report(res)
	if err != nil {
		return nil, err
	}
	for n, m := range rep.Metrics {
		m.Value = finite(m.Value)
		rep.Metrics[n] = m
	}
	return rep, nil
}
