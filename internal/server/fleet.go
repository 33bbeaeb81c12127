package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/store"
)

// The fleet endpoints: this file is the worker side of internal/fleet
// (shard tasks in, rule payloads out) plus the coordinator routing for
// ?fleet=1 mine requests. A worker's shard mine runs through the same
// admission control and cache as any local mine — the shard-suffixed
// cache key (params.shard) keeps partial results from ever aliasing a
// full-mine entry.

// handleFleetInfo implements GET /v1/fleet/info: the health/capacity
// probe a coordinator's registry polls. Status mirrors /v1/readyz.
func (s *Server) handleFleetInfo(w http.ResponseWriter, r *http.Request) {
	status := "ready"
	switch {
	case s.draining.Load():
		status = "draining"
	case !s.ready.Load():
		status = "loading"
	}
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, fleet.Info{Status: status, CPUs: runtime.GOMAXPROCS(0), Datasets: n})
}

// handleFleetDataset implements PUT /v1/fleet/datasets/{name}: a
// coordinator pushing a dataset replica. Replicas are registered
// resident but deliberately not committed to this worker's store — the
// coordinator owns durability, and a worker restart simply answers the
// next shard task with 404 to get the replica re-pushed.
func (s *Server) handleFleetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validDatasetName(name) {
		writeErr(w, r, http.StatusBadRequest, "invalid dataset name %q", name)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxUploadBytes())
	m, err := fleet.DecodeDataset(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, r, http.StatusRequestEntityTooLarge, "replica exceeds the %d-byte upload limit", tooBig.Limit)
			return
		}
		writeErr(w, r, http.StatusBadRequest, "parsing dataset replica: %v", err)
		return
	}
	if m.NumRows() == 0 || m.NumOnes() == 0 {
		writeErr(w, r, http.StatusBadRequest, "dataset replica has no transactions")
		return
	}
	hash, err := store.ContentHash(m)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "hashing dataset replica: %v", err)
		return
	}
	inf := info(name, m)
	s.add(name, &dataset{m: m, info: inf, hash: hash})
	writeJSON(w, http.StatusCreated, inf)
}

// handleFleetShard implements POST /v1/fleet/shard: run one column
// shard of a mine against the local replica and stream back the owned
// rules in the dmcrules text format (canonically sorted, so the
// payload for a given task is byte-deterministic). 404/409 signal a
// missing/stale replica — the coordinator answers with a push and a
// retry; overload sheds surface as the usual 429/503 + Retry-After.
func (s *Server) handleFleetShard(w http.ResponseWriter, r *http.Request) {
	var t fleet.Task
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&t); err != nil {
		writeErr(w, r, http.StatusBadRequest, "parsing shard task: %v", err)
		return
	}
	if err := t.Validate(); err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if t.Workers < 0 || t.Workers > maxWorkers {
		writeErr(w, r, http.StatusBadRequest, "task workers %d outside [0,%d]", t.Workers, maxWorkers)
		return
	}
	d, ok := s.get(t.Dataset)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "no dataset %q on this worker; push the replica", t.Dataset)
		return
	}
	if d.hash == "" || d.hash != t.Hash {
		writeErr(w, r, http.StatusConflict, "replica of %q has content %q, task wants %q; push the replica",
			t.Dataset, d.hash, t.Hash)
		return
	}
	shard := core.ShardRange{Lo: t.ColLo, Hi: t.ColHi}
	if err := shard.Validate(d.info.Cols); err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	p := params{
		threshold: t.Threshold, minSupport: t.MinSupport,
		workers: t.Workers, shard: &shard,
	}
	if t.Mode == "imp" {
		serveShard(s, w, r, &s.imps, d, p)
	} else {
		serveShard(s, w, r, &s.sims, d, p)
	}
}

// serveShard answers one shard task of pl's family down the ladder —
// the cached partial result or a fresh mine of the owned columns —
// written canonically sorted.
func serveShard[R, W any](s *Server, w http.ResponseWriter, r *http.Request, pl *pipeline[R, W], d *dataset, p params) {
	rs, _, ok := ladder(s, pl, d, p, s.runMine(w, r), s.streamCfg(p.workers))
	if !ok {
		return
	}
	pl.canon(rs)
	writeRulePayload(w, func(buf *bytes.Buffer) error { return pl.write(buf, rs) })
}

// writeRulePayload buffers the rule-file payload before writing so an
// encoding failure can still become a 500 instead of a torn body, and
// stamps the CRC-32C header the coordinator verifies — a payload
// truncated or corrupted in flight is retried, never merged.
func writeRulePayload(w http.ResponseWriter, encode func(*bytes.Buffer) error) {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		http.Error(w, "encoding rule payload", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	w.Header().Set(fleet.PayloadCRCHeader, fleet.PayloadCRC(buf.Bytes()))
	_, _ = w.Write(buf.Bytes())
}

// fleetStatus is the GET /v1/fleet/status payload: the coordinator's
// live view of its fleet — per-node health, breaker position, capacity
// and Retry-After embargo, plus the current hedge delay.
type fleetStatus struct {
	Nodes []fleet.NodeStatus `json:"nodes"`
	// HedgeAfterMs is the delay a straggling dispatch would hedge after
	// right now, in milliseconds (0 = hedging off or no latency sample).
	HedgeAfterMs int64 `json:"hedge_after_ms"`
}

// handleFleetStatus implements GET /v1/fleet/status on a coordinator
// replica.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fleetStatus{
		Nodes:        s.cfg.Fleet.Registry().Status(),
		HedgeAfterMs: int64(s.cfg.Fleet.HedgeDelay() / time.Millisecond),
	})
}

// fleetReady gates a ?fleet=1 mine: the replica must be a configured
// coordinator and the dataset resident with a content address (the
// planner needs the ones counts and stale workers get the replica
// pushed from it).
func (s *Server) fleetReady(w http.ResponseWriter, r *http.Request, d *dataset) bool {
	if s.cfg.Fleet == nil {
		writeErr(w, r, http.StatusBadRequest, "fleet mining is not enabled on this replica (start the coordinator with -fleet-nodes)")
		return false
	}
	if d.m == nil || d.hash == "" {
		writeErr(w, r, http.StatusBadRequest, "fleet mining needs a resident content-addressed dataset on the coordinator")
		return false
	}
	return true
}
