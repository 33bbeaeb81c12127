package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/server"
)

// runConfig is one invocation. The sizes are fixed in code for the
// benchmark (defaultConfig); only the smoke test shrinks them.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // the measured window (--seconds)
	trace    bool          // add the traced run and report per-layer metrics
	dir      string        // everything the run writes lands under it

	scale         float64 // gen.Bench scale
	setups        int     // set-ups per run; setup_s is their median
	appendBatches int     // append-mix batches in the measured window
	traceOps      int     // ops in the traced run

	// tamper, when set, corrupts the references before the clock starts;
	// the smoke test uses it to prove a wrong reply is caught.
	tamper func(*run)
}

// scale is gen.Bench's 1/8 scale: 131,072 rows × 512 columns.
const scale = 0.125

// appendRate is append-mix's batches per second of --seconds: a fixed
// op count, so a faster change does not grow the dataset further and
// pay for it, sized so the window lasts about --seconds on a 2-CPU x86
// box, where an append and the mine after it take about 90ms together.
const appendRate = 10

func defaultConfig(name string, seed int64, seconds int, trace bool, dir string) runConfig {
	return runConfig{
		workload: name, seed: seed, window: time.Duration(seconds) * time.Second,
		trace: trace, dir: dir,
		scale: scale, setups: 3, appendBatches: max(appendRate*seconds, minOps), traceOps: 64,
	}
}

// run is one invocation's state.
type run struct {
	cfg   runConfig
	w     *workload
	in    *inputs
	label func(matrix.Col) string

	oracle map[key]want  // static workloads: the reference reply per key
	app    *appendOracle // append-mix: the mirror of the growing dataset
	warm   []want        // the warm-up's reference per keys entry

	attempted int
	failures  []string
}

// fail records one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// attempt counts one operation toward "attempted".
func (r *run) attempt() { r.attempted++ }

// op is one timed operation of the measured window.
type op struct {
	ms     float64 // failedSample when it failed
	bytes  int
	source string
}

// execute runs one workload end to end: inputs and references, the
// set-ups, the measured window and, with cfg.trace, the traced run.
func execute(cfg runConfig) (*result, *run, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	in, err := makeInputs(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, w: w, in: in, label: in.labeler(w)}
	if w.appends {
		r.app = newAppendOracle(in)
		if err := r.app.advance(1); err != nil { // the warm append
			return nil, nil, err
		}
	} else {
		r.oracle = naiveOracle(in.m, r.label)
	}
	if cfg.tamper != nil {
		cfg.tamper(r)
	}
	r.warm = make([]want, len(keys))
	for i, k := range keys {
		if w.appends {
			r.warm[i] = r.app.want(k)
		} else {
			r.warm[i] = r.oracle[k]
		}
	}

	var setups []float64
	var e *env
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		if e, err = r.setup(filepath.Join(cfg.dir, fmt.Sprintf("env%d", i))); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	res, err := r.measure(e)
	if err != nil {
		return nil, nil, err
	}
	res.setupS = median(setups)
	if w.appends {
		r.verifyFinal(e)
	}
	if cfg.trace {
		if res.trace, err = r.traced(e); err != nil {
			return nil, nil, err
		}
	}
	res.attempted, res.failures = r.attempted, r.failures
	return res, r, nil
}

// setup is the timed set-up: start the server, register the dataset,
// then one untimed-by-the-window warm-up pass over the workload's keys
// (append-mix first pays its one-time snapshot rebuild with one append).
func (r *run) setup(dir string) (*env, error) {
	e, err := startEnv(r.w, r.in, dir)
	if err != nil {
		return nil, err
	}
	c := newClient(e.base)
	defer c.close()
	if r.w.appends {
		r.appendOnce(c, 0)
	}
	for i, k := range keys {
		r.checkedMine(c, k, r.warm[i])
	}
	return e, nil
}

// checkedMine mines k and checks the reply against wt.
func (r *run) checkedMine(c *client, k key, wt want) op {
	r.attempt()
	status, lat, err := c.do(http.MethodGet, k.path(datasetName), nil)
	o := op{ms: ms(lat), bytes: c.body.Len()}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, c.body.Bytes())
	}
	if err == nil {
		o.source, err = wt.check(c.body.Bytes())
	}
	if err != nil {
		r.fail("mine %v: %v", k, err)
		o.ms = failedSample
	}
	return o
}

// appendOnce posts batch b and checks the reply: 128 rows appended,
// bringing the dataset to the mirror's row count after batch b.
func (r *run) appendOnce(c *client, b int) op {
	r.attempt()
	status, lat, err := c.do(http.MethodPost, "/v1/datasets/"+datasetName+"/rows", r.in.batches[b])
	o := op{ms: ms(lat), bytes: c.body.Len()}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, c.body.Bytes())
	}
	if err == nil {
		var ar server.AppendResponse
		if err = json.Unmarshal(c.body.Bytes(), &ar); err == nil &&
			(ar.Appended != batchRows || ar.Rows != r.app.rows(b+1)) {
			err = fmt.Errorf("appended %d rows to %d, want %d to %d", ar.Appended, ar.Rows, batchRows, r.app.rows(b+1))
		}
	}
	if err != nil {
		r.fail("append batch %d: %v", b, err)
		o.ms = failedSample
	}
	return o
}

// keySeq returns the client's key sequence: a cycle through the keys
// starting at an offset drawn from the seed.
func (r *run) keySeq() func() key {
	i := int(uint64(r.cfg.seed) % uint64(len(keys)))
	return func() key {
		k := keys[i%len(keys)]
		i++
		return k
	}
}

// window is what the measured window observed.
type window struct {
	ops      []op // the workload's measured operations (mines, or appends)
	mines    []op // every mine, including append-mix's
	elapsed  time.Duration
	peakHeap uint64
	before   counters
	after    counters
}

// measure runs the measured window: the closed-loop client for
// cfg.window (append-mix: until its fixed batch count is done), with the
// heap sampled every 50ms.
func (r *run) measure(e *env) (*result, error) {
	c := newClient(e.base)
	defer c.close()
	runtime.GC() // set-up garbage is not the window's
	before, err := c.counters()
	if err != nil {
		return nil, err
	}
	stopHeap := sampleHeap()
	start := time.Now()
	var win window
	if r.w.appends {
		win.ops, win.mines = r.appendWindow(c)
	} else {
		win.ops = r.mineWindow(c, start.Add(r.cfg.window))
		win.mines = win.ops
	}
	win.elapsed = time.Since(start)
	win.peakHeap = stopHeap()
	if win.after, err = c.counters(); err != nil {
		return nil, err
	}
	win.before = before
	return &result{win: win}, nil
}

// mineWindow mines until the deadline, and on past it until minOps
// mines are done, so the tail percentile always has its samples.
func (r *run) mineWindow(c *client, deadline time.Time) []op {
	var ops []op
	next := r.keySeq()
	for time.Now().Before(deadline) || len(ops) < minOps {
		k := next()
		ops = append(ops, r.checkedMine(c, k, r.oracle[k]))
	}
	return ops
}

// read is one append-mix mine, kept for checking once the window
// closes: the batches applied before it and a digest of its rule list.
type read struct {
	k      key
	v      int
	total  int
	digest [sha256.Size]byte
}

// appendWindow alternates append-mix's fixed batches with mines: append
// batch b, then mine the next key, which must see exactly b+1 batches
// (the warm append is the first). The mines are checked against the
// mirror once the window closes, so its derivations cost the window
// nothing.
func (r *run) appendWindow(c *client) (appends, mines []op) {
	var reads []read
	next := r.keySeq()
	for b := 1; b <= r.cfg.appendBatches; b++ {
		appends = append(appends, r.appendOnce(c, b))
		k := next()
		r.attempt()
		status, lat, err := c.do(http.MethodGet, k.path(datasetName), nil)
		o := op{ms: failedSample, bytes: c.body.Len()}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, c.body.Bytes())
		}
		var h replyHead
		var suffix []byte
		if err == nil {
			h, suffix, err = splitReply(c.body.Bytes())
		}
		if err == nil && h.Truncated {
			err = fmt.Errorf("reply truncated at %d rules", h.Total)
		}
		if err != nil {
			r.fail("mine %v after batch %d: %v", k, b, err)
		} else {
			o.ms, o.source = ms(lat), h.Source
			reads = append(reads, read{k: k, v: b + 1, total: h.Total, digest: sha256.Sum256(suffix)})
		}
		mines = append(mines, o)
	}
	r.verifyReads(reads)
	return appends, mines
}

// verifyReads checks every append-mix mine against the mirror's
// reference at the version it must have seen.
func (r *run) verifyReads(reads []read) {
	for _, rd := range reads {
		if err := r.app.advance(rd.v); err != nil {
			r.fail("mirror: %v", err)
			return
		}
		wt := r.app.want(rd.k)
		if wt.total != rd.total || sha256.Sum256(wt.suffix) != rd.digest {
			r.fail("mine %v after %d batches differs from the reference (%d rules, reference %d)", rd.k, rd.v, rd.total, wt.total)
		}
	}
}

// verifyFinal re-checks every key once the appends are done against the
// naive reference on the final data.
func (r *run) verifyFinal(e *env) {
	c := newClient(e.base)
	defer c.close()
	if err := r.app.advance(1 + r.cfg.appendBatches); err != nil {
		r.fail("mirror: %v", err)
		return
	}
	final := r.app.cur
	ref := naiveOracle(final, final.Label)
	for _, k := range keys {
		r.checkedMine(c, k, ref[k])
	}
}

// appendOracle mirrors append-mix's dataset in the bench: the matrix
// and a core.Incremental advanced batch by batch exactly as the server
// advances its own, with the reference replies of the current version.
type appendOracle struct {
	in   *inputs
	base int // rows before any append
	v    int // batches applied
	cur  *matrix.Matrix
	inc  *core.Incremental
	memo map[key]want
}

func newAppendOracle(in *inputs) *appendOracle {
	return &appendOracle{in: in, base: in.m.NumRows(), cur: in.m, inc: core.BuildIncremental(in.m), memo: map[key]want{}}
}

// rows is the dataset's row count after v batches.
func (a *appendOracle) rows(v int) int { return a.base + v*batchRows }

// advance applies batches up to version v.
func (a *appendOracle) advance(v int) error {
	for a.v < v {
		next, err := matrix.ExtendBaskets(a.cur, bytes.NewReader(a.in.batches[a.v]))
		if err != nil {
			return err
		}
		a.inc.AddMatrixRows(next, a.cur.NumRows())
		a.cur = next
		a.v++
		a.memo = map[key]want{}
	}
	return nil
}

// want is the reference reply to k at the current version.
func (a *appendOracle) want(k key) want {
	wt, ok := a.memo[k]
	if !ok {
		wt = incWant(a.inc, k, a.cur.Label)
		a.memo[k] = wt
	}
	return wt
}

// sampleHeap samples the live-and-unswept heap every 50ms until the
// returned stop is called, which reports the maximum seen.
func sampleHeap() (stop func() uint64) {
	const name = "/memory/classes/heap/objects:bytes"
	sample := []metrics.Sample{{Name: name}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		max := read()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if v := read(); v > max {
					max = v
				}
			case <-quit:
				if v := read(); v > max {
					max = v
				}
				peak <- max
				return
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-peak
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
