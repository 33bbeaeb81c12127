package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"net/http"
	"slices"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

// pipeline is one rule family's route through the serving layer: the
// engines that mine it, the codec its cache entries and fleet payloads
// use, and its wire form. impPipeline and simPipeline are its two
// values; each Server holds its own copy so tests can swap engines.
type pipeline[R, W any] struct {
	// name is the family's metrics label, cache family and job pipeline.
	name string
	// resident mines a dataset through its memo with the §7
	// column-partitioned engine (workers 1 = the serial scan, 0 = one
	// worker per CPU): an in-memory one, or a file-backed one over its
	// kept partition. Cancellation, budget overflow and broken replays
	// (SourceError panics) surface as errors via core.CapturePass. file
	// partitions a matrix file and streams it through the out-of-core
	// engine: budget degrades, jobs' checkpoints, and mines whose
	// dataset registration has ended.
	resident func(p *core.Prepared, t core.Threshold, o core.Options, workers int) ([]R, core.Stats, error)
	file     func(path string, t core.Threshold, o core.Options, cfg stream.Config) ([]R, core.Stats, error)
	fleet    func(c *fleet.Coordinator, ctx context.Context, ds fleet.DatasetRef, p fleet.Params) ([]R, fleet.Stats, error)
	derive   func(inc *core.Incremental, t core.Threshold, o core.Options) []R
	read     func(io.Reader) ([]R, error)
	write    func(io.Writer, []R) error
	// canon sorts into the canonical id order that cache entries and
	// fleet payloads are written in; wireSort into the response order.
	canon    func([]R)
	wireSort func([]R)
	wire     func(label func(matrix.Col) string, r R) W
	// appendWire appends a wire rule's fields as a mine reply holds them.
	appendWire func(W, []byte) []byte
}

var impPipeline = pipeline[rules.Implication, ImplicationWire]{
	name:     "imp",
	resident: residentEngine((*core.Prepared).Implications),
	file:     stream.MineImplicationsCfg,
	fleet:    (*fleet.Coordinator).MineImplications,
	derive:   (*core.Incremental).Implications,
	read:     rules.ReadImplications,
	write:    rules.WriteImplications,
	canon:    rules.SortImplications,
	// Confidence descending, then column ids. A rule set holds each
	// pair once, so no two rules compare equal and every sort yields
	// the same order.
	wireSort: func(rs []rules.Implication) {
		slices.SortFunc(rs, func(a, b rules.Implication) int {
			if c := cmp.Compare(b.Confidence(), a.Confidence()); c != 0 {
				return c
			}
			if c := cmp.Compare(a.From, b.From); c != 0 {
				return c
			}
			return cmp.Compare(a.To, b.To)
		})
	},
	wire: func(label func(matrix.Col) string, r rules.Implication) ImplicationWire {
		return ImplicationWire{
			From: label(r.From), To: label(r.To),
			Confidence: r.Confidence(), Hits: r.Hits, Ones: r.Ones,
		}
	},
	appendWire: ImplicationWire.appendJSON,
}

var simPipeline = pipeline[rules.Similarity, SimilarityWire]{
	name:     "sim",
	resident: residentEngine((*core.Prepared).Similarities),
	file:     stream.MineSimilaritiesCfg,
	fleet:    (*fleet.Coordinator).MineSimilarities,
	derive:   (*core.Incremental).Similarities,
	read:     rules.ReadSimilarities,
	write:    rules.WriteSimilarities,
	canon:    rules.SortSimilarities,
	// Pairs come back rank-ordered — the rarer column first, ids breaking
	// ties — regardless of which engine produced them: scan engines emit
	// that orientation natively, but cached payloads and snapshot
	// derivations are canonicalized by column id, so re-orient here. Then
	// similarity descending, then column ids.
	wireSort: func(rs []rules.Similarity) {
		for i := range rs {
			if rs[i].OnesB < rs[i].OnesA || (rs[i].OnesB == rs[i].OnesA && rs[i].B < rs[i].A) {
				rs[i].A, rs[i].B = rs[i].B, rs[i].A
				rs[i].OnesA, rs[i].OnesB = rs[i].OnesB, rs[i].OnesA
			}
		}
		slices.SortFunc(rs, func(a, b rules.Similarity) int {
			if c := cmp.Compare(b.Value(), a.Value()); c != 0 {
				return c
			}
			if c := cmp.Compare(a.A, b.A); c != 0 {
				return c
			}
			return cmp.Compare(a.B, b.B)
		})
	},
	wire: func(label func(matrix.Col) string, r rules.Similarity) SimilarityWire {
		return SimilarityWire{
			A: label(r.A), B: label(r.B),
			Similarity: r.Value(), Hits: r.Hits, OnesA: r.OnesA, OnesB: r.OnesB,
		}
	},
	appendWire: SimilarityWire.appendJSON,
}

// residentEngine adapts a panic-based core miner to pipeline.resident.
func residentEngine[R any](mine func(*core.Prepared, core.Threshold, core.Options, int) ([]R, core.Stats)) func(*core.Prepared, core.Threshold, core.Options, int) ([]R, core.Stats, error) {
	return func(p *core.Prepared, t core.Threshold, o core.Options, workers int) ([]R, core.Stats, error) {
		var rs []R
		var st core.Stats
		err := core.CapturePass(func() { rs, st = mine(p, t, o, workers) })
		return rs, st, err
	}
}

// handleMine serves GET /v1/datasets/{name}/implications and
// /similarities down the ladder. The response renders in pl's
// deterministic wire order, so a cached or incremental replay is
// byte-identical to the full scan it stands in for.
func handleMine[R, W any](s *Server, pl *pipeline[R, W]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		tenant, ok := s.tenantOf(w, r)
		if !ok {
			return
		}
		d, ok := s.getFor(tenant, name)
		if !ok {
			writeErr(w, r, http.StatusNotFound, "no dataset %q", name)
			return
		}
		p, err := mineParams(r)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		if p.fleet && !s.fleetReady(w, r, d) {
			return
		}
		start := time.Now()
		rs, source, ok := ladder(s, pl, d, p, s.runMine(w, r), s.streamCfg(p.workers))
		if !ok {
			return
		}
		elapsed := time.Since(start)
		pl.wireSort(rs)
		head := MineResponse[W]{Dataset: name, Threshold: p.threshold, ElapsedMS: elapsed.Milliseconds(), Source: source}
		writeMineReply(w, pl, head, rs, p.limit, d.label)
	}
}

// runner runs the ladder's scan rung under its caller's admission:
// runMine for HTTP requests, a direct call for jobs, which the job pool
// has already admitted. It hands mine the context to honour and the
// hooks to report phases to, and records the run's metrics under
// label. It reports whether mine succeeded; on failure it has already
// answered for the error.
type runner func(label string, mine func(ctx context.Context, hooks *core.Hooks) (core.Stats, error)) bool

// ladder is the one serving decision of every mine: HTTP mines,
// expansions, fleet shard tasks and async jobs. It tries the result
// cache, then a derivation from d's resumable snapshot, then a scan
// under run: a fleet scatter for p.fleet, otherwise a local mine, where
// a file-backed dataset takes mineFile with sc and a resident one
// takes mineMem. It caches what it computed and returns the rules and
// the rung that served them: "cache", "incremental", "fleet", or "" for
// a local scan. ok is false when the scan failed.
//
// The cache and snapshot rungs take no admission slot and start no
// goroutine. Shard tasks skip the snapshot: a derivation ignores
// Options.Shard and would return every column's rules.
func ladder[R, W any](s *Server, pl *pipeline[R, W], d *dataset, p params, run runner, sc stream.Config) ([]R, string, bool) {
	if rs, ok := cachedRules(s, pl, d, p); ok {
		return rs, "cache", true
	}
	t := core.FromPercent(p.threshold)
	if p.shard == nil {
		if inc, ok := s.snapshot(d); ok {
			// O(pairs) from the resumable counters, no scan.
			rs := pl.derive(inc, t, core.Options{MinSupport: p.minSupport})
			s.metrics.incMines.With(pl.name).Inc()
			storeRules(s, pl, d, p, rs)
			return rs, "incremental", true
		}
	}
	// A scan that run abandons at its deadline may still finish in the
	// background: it writes only mined and sc, which nothing reads
	// after run returns false.
	var mined []R
	label, rung := pl.name, ""
	scan := func(ctx context.Context, hooks *core.Hooks) (st core.Stats, err error) {
		opts := core.Options{MinSupport: p.minSupport, Hooks: hooks, MemBudgetBytes: s.cfg.MemBudgetBytes, Shard: p.shard, Ctx: ctx}
		if d.m != nil {
			mined, st, err = mineMem(s, pl, d, t, opts, p)
		} else {
			sc.Ctx = ctx
			mined, st, err = mineFile(s, pl, d, t, opts, sc)
		}
		return st, err
	}
	switch {
	case p.fleet:
		label, rung = pl.name+"-fleet", "fleet"
		scan = func(ctx context.Context, _ *core.Hooks) (core.Stats, error) {
			rs, _, err := pl.fleet(s.cfg.Fleet, ctx, fleet.DatasetRef{Name: d.info.Name, Hash: d.hash, M: d.m},
				fleet.Params{ThresholdPercent: p.threshold, MinSupport: p.minSupport, Workers: p.workers})
			mined = rs
			return core.Stats{NumRules: len(rs)}, err
		}
	case p.shard != nil:
		label += "-shard"
	}
	if !run(label, scan) {
		return nil, "", false
	}
	storeRules(s, pl, d, p, mined)
	return mined, rung, true
}

// mineMem mines a resident dataset through its memo (d.prep) down the
// degrade rung it shares with the library and dmcmine
// (stream.MineResident), whose density-bucket re-ordering and
// disk-backed passes are the paper's answer to counter arrays that
// outgrow memory:
//
//   - brownout: when the admission ledger says this mine would push the
//     resident-mine footprint past Config.BrownoutBytes, it runs out of
//     core from the start instead of being rejected;
//   - budget overflow: a *core.BudgetError from the resident pipeline
//     spills the matrix and re-mines it out of core.
//
// Both paths count on dmc_mines_degraded_total. The resident mine runs
// at s.residentWorkers(p), the out-of-core one at p.workers.
func mineMem[R, W any](s *Server, pl *pipeline[R, W], d *dataset, t core.Threshold, o core.Options, p params) ([]R, core.Stats, error) {
	cfg := s.streamCfg(p.workers)
	cfg.Ctx = o.Ctx
	resident := func() ([]R, core.Stats, error) {
		workers, done := s.residentWorkers(p)
		defer done()
		rs, st, err := pl.resident(d.prep, t, o, workers)
		return rs, st, s.noteCancelled(err)
	}
	release, brownout := s.admitResident(d.footprint())
	if brownout {
		resident = nil
	} else {
		defer release()
	}
	return stream.MineResident(d.m, cfg.TmpDir, resident, func(path string) ([]R, core.Stats, error) {
		s.metrics.degraded.Inc()
		return pl.file(path, t, o, cfg)
	})
}

// mineFile mines a file-backed dataset at sc.Workers. A job's mine
// (sc.CheckpointDir set) partitions into its checkpoint through pl.file,
// and so does a mine whose registration has ended. Every other mine
// replays d's kept partition through its memo with pl.resident, the
// engine of a resident dataset. A replay that breaks — a segment gone,
// or a frame failing its CRC on every re-read — retires the partition,
// and the mine runs once more over a fresh one.
func mineFile[R, W any](s *Server, pl *pipeline[R, W], d *dataset, t core.Threshold, o core.Options, sc stream.Config) ([]R, core.Stats, error) {
	if sc.CheckpointDir != "" {
		return pl.file(d.path, t, o, sc)
	}
	for retried := false; ; retried = true {
		k, err := s.kept.acquire(o.Ctx, d, sc)
		if errors.Is(err, errSlotClosed) {
			return pl.file(d.path, t, o, sc)
		}
		if err != nil {
			return nil, core.Stats{}, s.noteCancelled(err)
		}
		rs, st, err := pl.resident(k.prep, t, o, sc.Workers)
		s.kept.release(k)
		var pe *stream.PassError
		if !retried && errors.As(err, &pe) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.kept.retire(d.slot, k)
			continue
		}
		return rs, st, s.noteCancelled(err)
	}
}

// cachedRules returns the cached rule set for (d, p), if any.
func cachedRules[R, W any](s *Server, pl *pipeline[R, W], d *dataset, p params) ([]R, bool) {
	hash, ok := s.cacheable(d)
	if !ok {
		return nil, false
	}
	key := cache.Key(hash, pl.name, p.paramsKey())
	payload, ok := s.rc.Get(key)
	if !ok {
		return nil, false
	}
	rs, err := pl.read(bytes.NewReader(payload))
	if err != nil {
		// A payload that frames as valid but does not parse is foreign
		// damage; drop it and re-derive.
		s.rc.Remove(key)
		return nil, false
	}
	return rs, true
}

// storeRules caches a freshly derived rule set for (d, p), sorting rs
// into canonical order in place. Failures are deliberately swallowed:
// caching is an optimization and the response is already correct.
func storeRules[R, W any](s *Server, pl *pipeline[R, W], d *dataset, p params, rs []R) {
	hash, ok := s.cacheable(d)
	if !ok {
		return
	}
	pl.canon(rs)
	var b bytes.Buffer
	if pl.write(&b, rs) == nil {
		_ = s.rc.Put(cache.Key(hash, pl.name, p.paramsKey()), b.Bytes())
	}
}
