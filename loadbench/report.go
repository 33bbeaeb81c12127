package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/store"
)

// result is what one invocation observed.
type result struct {
	win       window
	setupS    float64
	trace     *traceStats // nil without the traced run
	attempted int
	failures  []string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report assembles the run's output: the end-to-end metrics, or with
// the traced run the per-layer ones.
func (r *run) report(res *result) (*report, error) {
	rep := &report{
		Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: len(res.failures),
		Metrics: map[string]metric{},
	}
	var err error
	if res.trace == nil {
		err = r.endToEnd(res, rep.Metrics)
	} else {
		err = r.perLayer(res, rep.Metrics)
	}
	return rep, err
}

func latencies(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.ms
	}
	return out
}

// tailPct is the tail percentile every workload reports: the highest
// round one that leaves minTail samples beyond it at append-mix's fixed
// op count (appendRate per second of a window of at least 10s). The
// time-bounded workloads gather about 160 (scan-streamed) to 15,000
// (cache-hot) ops in 20s.
const tailPct = 90

// minOps is the fewest ops tailPct can be read from. Every workload
// measures at least that many.
const minOps = 100 * minTail / (100 - tailPct)

// endToEnd is what a user of the server sees. An op is a mine, except
// in append-mix, where it is a row append.
func (r *run) endToEnd(res *result, out map[string]metric) error {
	lat := latencies(res.win.ops)
	p50, err := percentile(lat, 50)
	if err != nil {
		return err
	}
	tail, err := percentile(lat, tailPct)
	if err != nil {
		return fmt.Errorf("%s: %d ops: %w", r.w.name, len(lat), err)
	}
	ok := 0
	for _, o := range res.win.ops {
		if !math.IsInf(o.ms, 1) {
			ok++
		}
	}
	out["setup_s"] = metric{res.setupS, "s"}
	out["op_p50_ms"] = metric{p50, "ms"}
	out["op_p90_ms"] = metric{tail, "ms"}
	out["ops_per_s"] = metric{float64(ok) / res.win.elapsed.Seconds(), "1/s"}
	out["peak_heap_mb"] = metric{float64(res.win.peakHeap) / (1 << 20), "MB"}
	return nil
}

// perLayer is the ledger. The *_ms values are mean self time per traced
// op; counts come from the measured window's /v1/metrics deltas and
// reply sources, per mine; the kernels, basket parsing and content
// hashing are timed by probes of their own.
func (r *run) perLayer(res *result, out map[string]metric) error {
	ts, win := res.trace, res.win
	ops := float64(ts.ops)
	perOp := func(name string) metric { return metric{ms(ts.self[name]) / ops, "ms"} }
	delta := func(name string, keep func(map[string]string) bool) float64 {
		return win.after.sum(name, keep) - win.before.sum(name, keep)
	}
	mines := float64(len(win.mines))
	per := func(v float64) float64 {
		if mines == 0 {
			return 0
		}
		return v / mines
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// server
	out["server.http_ms"] = perOp("server.http")
	out["server.unattributed_ms"] = metric{ms(ts.self["server.http"]-ts.cover) / ops, "ms"}
	out["server.render_ms"] = perOp("server.render")
	var size float64
	sources := map[string]float64{}
	for _, o := range win.mines {
		size += float64(o.bytes)
		sources[o.source]++
	}
	out["server.response_kb"] = metric{per(size) / 1024, "KB"}
	p50, err := percentile(latencies(win.mines), 50)
	if err != nil {
		return err
	}
	out["server.mine_p50_ms"] = metric{p50, "ms"}
	out["server.rung_scan_frac"] = metric{per(sources[""]), "frac"}
	out["server.rung_cache_frac"] = metric{per(sources["cache"]), "frac"}
	out["server.rung_incremental_frac"] = metric{per(sources["incremental"]), "frac"}

	// cache and rules
	out["cache.get_ms"] = perOp("cache.get")
	out["cache.put_ms"] = perOp("cache.put")
	hits, misses := delta("dmc_cache_hits_total", nil), delta("dmc_cache_misses_total", nil)
	out["cache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	out["cache.evictions"] = metric{delta("dmc_cache_evictions_total", nil), "count"}
	out["rules.decode_ms"] = perOp("rules.decode")
	out["rules.encode_ms"] = perOp("rules.encode")

	// core: the scan, then the incremental engine
	out["core.prescan_ms"] = perOp("core.prescan")
	out["core.phase100_ms"] = perOp("core.phase100")
	out["core.phaselt_ms"] = perOp("core.phaselt")
	out["core.bitmap_ms"] = metric{ms(ts.sh.bitmap) / ops, "ms"}
	out["core.self_ms"] = perOp("core.mine")
	added := delta("dmc_mine_candidates_added_total", nil)
	out["core.candidates_added"] = metric{per(added), "count/op"}
	out["core.candidates_deleted"] = metric{per(delta("dmc_mine_candidates_deleted_total", nil)), "count/op"}
	out["core.rules_per_candidate"] = metric{ratio(delta("dmc_mine_rules_total", nil), added), "ratio"}
	out["core.peak_counter_kb"] = metric{win.after.sum("dmc_mine_peak_counter_bytes", nil) / 1024, "KB"}
	out["core.inc_decode_ms"] = perOp("core.inc_decode")
	out["core.inc_derive_ms"] = perOp("core.inc_derive")
	out["core.inc_add_ms"] = perOp("core.inc_add")
	out["core.inc_encode_ms"] = perOp("core.inc_encode")
	out["core.inc_pairs"] = metric{float64(ts.sh.pairs), "count"}

	// bitset kernels, micro-timed on the workload's column bitmaps
	many, fused := kernelProbe(r.in.m)
	out["bitset.and_not_count_many_ns_per_word"] = metric{many, "ns/word"}
	out["bitset.and_and_not_count_ns_per_word"] = metric{fused, "ns/word"}

	// stream: each streamed mine reads the input once to partition and
	// replays the spills twice
	out["stream.self_ms"] = perOp("stream.mine")
	var mbps float64
	if d := ts.total["stream.mine"]; d > 0 {
		mbps = 3 * float64(r.in.fileSize) / 1e6 / (d.Seconds() / ops)
	}
	out["stream.mb_per_s"] = metric{mbps, "MB/s"}
	out["stream.frames"] = metric{per(delta("dmc_stream_frames_total", nil)), "count/op"}
	out["stream.prefetch_stalls"] = metric{per(delta("dmc_stream_prefetch_stalls_total", nil)), "count/op"}
	out["stream.spilled_kb"] = metric{per(delta("dmc_stream_spilled_bytes_total", nil)) / 1024, "KB/op"}

	// matrix and store
	out["matrix.extend_ms"] = perOp("matrix.extend")
	var parse, hash float64
	if !r.w.streamed {
		parse = probe(func() { _, _ = matrix.ReadBaskets(bytes.NewReader(r.in.body)) })
	}
	if r.w.cache {
		m := r.in.m
		if r.w.appends {
			m = ts.sh.m
		}
		hash = probe(func() { _, _ = store.ContentHash(m) })
	}
	out["matrix.read_baskets_ms"] = metric{parse, "ms"}
	out["store.put_ms"] = perOp("store.put")
	out["store.content_hash_ms"] = metric{hash, "ms"}
	out["store.write_amp"] = metric{ratio(float64(ts.sh.blobB), float64(ts.sh.appendB)), "ratio"}

	return nil
}

// probe returns f's median wall time over three calls, in ms.
func probe(f func()) float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		ts = append(ts, ms(time.Since(start)))
	}
	return median(ts)
}

// kernelSink keeps the kernel probes' results alive.
var kernelSink int

// kernelProbe times the two bitset kernels the scans' bitmap endgame
// uses, one column's bitmap against all the others, in ns per 64-bit
// word: the median of five rounds of at least 20ms each.
func kernelProbe(m *matrix.Matrix) (many, fused float64) {
	bms := core.ColumnBitmaps(m)
	s, ts := bms[0], bms[1:]
	words := float64(len(ts) * ((m.NumRows() + 63) / 64))
	out := make([]int, len(ts))
	perWord := func(f func()) float64 {
		var rounds []float64
		for i := 0; i < 5; i++ {
			n := 0
			start := time.Now()
			for time.Since(start) < 20*time.Millisecond {
				f()
				n++
			}
			rounds = append(rounds, float64(time.Since(start))/float64(n)/words)
		}
		return median(rounds)
	}
	many = perWord(func() { s.AndNotCountMany(ts, out) })
	fused = perWord(func() {
		for _, t := range ts {
			a, b := s.AndAndNotCount(t)
			kernelSink += a + b
		}
	})
	kernelSink += out[0]
	return many, fused
}

// finite makes a value JSON-encodable: a percentile that landed on a
// failed op (+Inf) reads as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// lines renders the metrics one per line, sorted by name.
func (rep *report) lines() []string {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		m := rep.Metrics[n]
		out = append(out, fmt.Sprintf("%-40s %14.4f %s", n, m.Value, m.Unit))
	}
	return out
}
