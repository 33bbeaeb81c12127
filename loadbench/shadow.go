package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/server"
	"dmc/internal/store"
	"dmc/internal/stream"
)

// The traced run. Each op goes over HTTP exactly as in the measured
// window and is timed as the span server.http, with nothing inside the
// server instrumented. Then a shadow pipeline replays the same step by
// calling the layers' public functions in the server's ladder order,
// each call a span, against its own store and cache directories that
// have received the same ops. The part of server.http the shadow spans
// do not cover — admission, routing, HTTP framing, handler glue — is
// server.unattributed, so the layers sum to the total by construction.

// span is one timed call of the traced run. Spans of one op share its
// index; a layer's self time is its duration minus its children's.
type span struct {
	op           int
	name, parent string
	start, end   time.Time
}

type tracer struct {
	op    int
	spans []span
}

// do times f as a top-level span of the current op.
func (t *tracer) do(name string, f func()) {
	start := time.Now()
	f()
	t.spans = append(t.spans, span{op: t.op, name: name, start: start, end: time.Now()})
}

// add records a span of duration d ending now: the HTTP round trip
// (parent ""), or what a layer reported about itself — a core phase
// through Options.Hooks.
func (t *tracer) add(parent, name string, d time.Duration) {
	end := time.Now()
	t.spans = append(t.spans, span{op: t.op, name: name, parent: parent, start: end.Add(-d), end: end})
}

// ledger sums the spans per name, in full and as self time, and the
// total of the shadow's top-level spans — everything but server.http.
func (t *tracer) ledger() (total, self map[string]time.Duration, covered time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		total[s.name] += d
		self[s.name] += d
		if s.parent != "" {
			self[s.parent] -= d
		} else if s.name != "server.http" {
			covered += d
		}
	}
	return total, self, covered
}

// family is one rule family's set of layer entry points.
type family[R any] struct {
	mode   string
	scan   func(*matrix.Matrix, core.Threshold, core.Options) ([]R, core.Stats)
	stream func(string, core.Threshold, core.Options, stream.Config) ([]R, core.Stats, error)
	derive func(*core.Incremental, core.Threshold, core.Options) []R
	read   func(io.Reader) ([]R, error)
	write  func(io.Writer, []R) error
	sort   func([]R)
	render func(int, []R, func(matrix.Col) string, string) []byte
}

var impFamily = family[rules.Implication]{
	mode: "imp", scan: core.DMCImp, stream: stream.MineImplicationsCfg,
	derive: (*core.Incremental).Implications,
	read:   rules.ReadImplications, write: rules.WriteImplications, sort: rules.SortImplications,
	render: renderImps,
}

var simFamily = family[rules.Similarity]{
	mode: "sim", scan: core.DMCSim, stream: stream.MineSimilaritiesCfg,
	derive: (*core.Incremental).Similarities,
	read:   rules.ReadSimilarities, write: rules.WriteSimilarities, sort: rules.SortSimilarities,
	render: renderSims,
}

// shadow replays ops through the layers the way the server's handlers
// do, on state of its own.
type shadow struct {
	t     tracer
	label func(matrix.Col) string
	m     *matrix.Matrix // the resident dataset (nil when streamed)
	file  string         // the file-backed dataset (scan-streamed)
	hash  string         // the dataset's content address (cache keys)
	cache *cache.Cache
	store *store.Store

	bitmap  time.Duration // core.Stats.Bitmap, inside the phases
	blobB   int64         // blob bytes written by appends
	appendB int64         // appended body bytes
	pairs   int           // live pair counters after the last append
	closers []func() error
}

// paramsKey is the server's cache key for a mine's parameters.
func paramsKey(k key) string { return fmt.Sprintf("t=%d ms=0", k.threshold) }

func (s *shadow) opts(parent string) core.Options {
	return core.Options{Ctx: context.Background(), Hooks: &core.Hooks{
		OnPhase: func(_, phase string, d time.Duration) {
			name := map[string]string{"prescan": "core.prescan", "100": "core.phase100", "lt": "core.phaselt"}[phase]
			s.t.add(parent, name, d)
		},
	}}
}

// mine replays one mine: the cache rung, the snapshot rung, then the
// scan, caching what was derived, then rendering. It returns the
// rung taken (the reply's source) and the rendered reply.
func (s *shadow) mine(k key) (string, []byte, error) {
	if k.mode == "imp" {
		return shadowMine(s, k, impFamily)
	}
	return shadowMine(s, k, simFamily)
}

func shadowMine[R any](s *shadow, k key, f family[R]) (string, []byte, error) {
	th := core.FromPercent(k.threshold)
	var rs []R
	var err error
	rung, found := "", false
	if s.cache != nil {
		var payload []byte
		var ok bool
		s.t.do("cache.get", func() { payload, ok = s.cache.Get(cache.Key(s.hash, f.mode, paramsKey(k))) })
		if ok {
			s.t.do("rules.decode", func() { rs, err = f.read(bytes.NewReader(payload)) })
			if err != nil {
				return "", nil, err
			}
			rung, found = "cache", true
		}
		if !found {
			if inc, ok := s.snapshot(); ok {
				s.t.do("core.inc_derive", func() { rs = f.derive(inc, th, core.Options{}) })
				rung, found = "incremental", true
				storeRules(s, f, k, rs)
			}
		}
	}
	if !found {
		var st core.Stats
		if s.file != "" {
			s.t.do("stream.mine", func() {
				rs, st, err = f.stream(s.file, th, s.opts("stream.mine"), stream.Config{Workers: 1, Ctx: context.Background()})
			})
		} else {
			s.t.do("core.mine", func() { rs, st = f.scan(s.m, th, s.opts("core.mine")) })
		}
		s.bitmap += st.Bitmap
		if err != nil {
			return "", nil, err
		}
		storeRules(s, f, k, rs)
	}
	var body []byte
	s.t.do("server.render", func() { body = f.render(k.threshold, rs, s.label, rung) })
	return rung, body, nil
}

// snapshot is the server's snapshot rung: the dataset's resumable
// counters from the cache, if stored for exactly this content.
func (s *shadow) snapshot() (*core.Incremental, bool) {
	var payload []byte
	var ok bool
	key := cache.Key(s.hash, "inc", "")
	s.t.do("cache.get", func() { payload, ok = s.cache.Get(key) })
	if !ok {
		return nil, false
	}
	var inc *core.Incremental
	var err error
	s.t.do("core.inc_decode", func() { inc, err = core.DecodeIncremental(bytes.NewReader(payload)) })
	if err != nil || inc.Rows() != s.m.NumRows() {
		s.cache.Remove(key)
		return nil, false
	}
	return inc, true
}

// storeRules caches a derived rule set as the server does: canonical
// order, rule-file encoding, one cache put.
func storeRules[R any](s *shadow, f family[R], k key, rs []R) {
	if s.cache == nil {
		return
	}
	var b bytes.Buffer
	var err error
	s.t.do("rules.encode", func() {
		sorted := append([]R(nil), rs...)
		f.sort(sorted)
		err = f.write(&b, sorted)
	})
	if err == nil {
		s.t.do("cache.put", func() { _ = s.cache.Put(cache.Key(s.hash, f.mode, paramsKey(k)), b.Bytes()) })
	}
}

// appendRows replays one row append as the server's handler does and
// returns the rendered reply.
func (s *shadow) appendRows(batch []byte) ([]byte, error) {
	var grown *matrix.Matrix
	var err error
	s.t.do("matrix.extend", func() { grown, err = matrix.ExtendBaskets(s.m, bytes.NewReader(batch)) })
	if err != nil {
		return nil, err
	}
	inc, resumed := s.snapshot()
	if !resumed {
		s.t.do("core.inc_build", func() { inc = core.BuildIncremental(s.m) })
	}
	s.t.do("core.inc_add", func() { inc.AddMatrixRows(grown, s.m.NumRows()) })
	var e store.Entry
	s.t.do("store.put", func() { e, err = s.store.Put(datasetName, grown) })
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	s.t.do("core.inc_encode", func() { err = inc.EncodeTo(&b) })
	if err != nil {
		return nil, err
	}
	s.t.do("cache.put", func() { _ = s.cache.Put(cache.Key(e.Hash, "inc", ""), b.Bytes()) })
	added := grown.NumRows() - s.m.NumRows()
	s.blobB += e.Size
	s.appendB += int64(len(batch))
	s.pairs = inc.Pairs()
	s.m, s.hash = grown, e.Hash
	var body []byte
	s.t.do("server.render", func() {
		body = encodeJSON(server.AppendResponse{
			DatasetInfo: server.DatasetInfo{
				Name: datasetName, Rows: grown.NumRows(), Cols: grown.NumCols(), Ones: grown.NumOnes(),
				Labeled: grown.Labels() != nil, Durable: true,
			},
			Appended: added, Incremental: resumed,
		})
	})
	return body, nil
}

func (s *shadow) close() error {
	var err error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if cerr := s.closers[i](); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// newShadow builds the shadow in the state the server is in now.
func (r *run) newShadow() (*shadow, error) {
	dir := filepath.Join(r.cfg.dir, "shadow")
	s := &shadow{label: r.label, m: r.in.m, file: r.in.file}
	fail := func(err error) (*shadow, error) { s.close(); return nil, err }
	if r.w.streamed {
		s.m = nil
	}
	if r.w.cache {
		c, err := cache.Open(filepath.Join(dir, "cache"), cache.Options{})
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, c.Close)
		s.cache = c
	}
	switch {
	case r.w.appends:
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, st.Close)
		s.store = st
		s.m = r.app.cur
		ent, err := st.Put(datasetName, s.m)
		if err != nil {
			return fail(err)
		}
		s.hash = ent.Hash
		var b bytes.Buffer
		if err := r.app.inc.EncodeTo(&b); err != nil {
			return fail(err)
		}
		if err := s.cache.Put(cache.Key(s.hash, "inc", ""), b.Bytes()); err != nil {
			return fail(err)
		}
	case r.w.cache:
		h, err := store.ContentHash(s.m)
		if err != nil {
			return fail(err)
		}
		s.hash = h
		// The server's cache was filled by the warm-up; fill the shadow's
		// the same way, untraced.
		for _, k := range keys {
			if _, _, err := s.mine(k); err != nil {
				return fail(err)
			}
		}
		s.t.spans = nil
	}
	return s, nil
}

// traceStats is what the traced run observed.
type traceStats struct {
	ops         int
	total, self map[string]time.Duration // per span name
	cover       time.Duration            // the shadow's top-level spans, all ops
	sh          *shadow
}

// traced runs the first cfg.traceOps ops of the workload's seeded
// sequence with one client, each followed by its shadow replay. The
// shadow's rung must equal the reply's source and its rendered rule
// list must be byte-identical to the reply's.
func (r *run) traced(e *env) (*traceStats, error) {
	sh, err := r.newShadow()
	if err != nil {
		return nil, err
	}
	defer sh.close()
	c := newClient(e.base)
	defer c.close()
	next := r.keySeq()
	ts := &traceStats{ops: r.cfg.traceOps, sh: sh}
	batch := 1 + r.cfg.appendBatches
	for i := 0; i < r.cfg.traceOps; i++ {
		sh.t.op = i
		r.attempt()
		if r.w.appends && i%2 == 0 {
			status, lat, err := c.do(http.MethodPost, "/v1/datasets/"+datasetName+"/rows", r.in.batches[batch])
			sh.t.add("", "server.http", lat)
			want, serr := sh.appendRows(r.in.batches[batch])
			batch++
			switch {
			case err != nil || status != http.StatusOK:
				r.fail("traced append: status %d, %v", status, err)
			case serr != nil:
				r.fail("traced append shadow: %v", serr)
			case !bytes.Equal(c.body.Bytes(), want):
				r.fail("traced append: reply differs from the shadow's")
			}
			continue
		}
		k := next()
		status, lat, err := c.do(http.MethodGet, k.path(datasetName), nil)
		sh.t.add("", "server.http", lat)
		rung, sbody, serr := sh.mine(k)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil || serr != nil {
			r.fail("traced mine %v: %v, shadow %v", k, err, serr)
			continue
		}
		if wt, ok := r.oracle[k]; ok {
			if _, err := wt.check(c.body.Bytes()); err != nil {
				r.fail("traced mine %v: %v", k, err)
			}
		}
		h, got, err := splitReply(c.body.Bytes())
		_, want, _ := splitReply(sbody)
		switch {
		case err != nil:
			r.fail("traced mine %v: %v", k, err)
		case h.Source != rung:
			r.fail("traced mine %v: reply source %q, shadow rung %q", k, h.Source, rung)
		case !bytes.Equal(got, want):
			r.fail("traced mine %v: rule list differs from the shadow's", k)
		}
	}
	ts.total, ts.self, ts.cover = sh.t.ledger()
	return ts, nil
}
