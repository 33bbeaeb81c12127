// Async job endpoints: the crash-safe /v1/jobs API over the
// internal/jobs manager. A POST validates the mine against the tenant's
// dataset catalog, journals it durably, and returns 202 with the job id
// — the mine itself runs on the job worker pool, streaming progress
// over SSE and committing its result as a content-addressed blob. A
// server SIGKILL leaves the job journaled; the next boot runs it again,
// and a job on a stored file-backed dataset then resumes the dataset's
// kept partition from disk instead of partitioning again.
//
//	POST /v1/jobs                  {"dataset","pipeline","threshold",...} → 202 + job
//	GET  /v1/jobs                  the tenant's jobs, newest first
//	GET  /v1/jobs/{id}             poll one job
//	GET  /v1/jobs/{id}/result      the mined rules (text/plain, dmcrules format)
//	GET  /v1/jobs/{id}/events      SSE progress: state, phase, stats frames
//	DEL  /v1/jobs/{id}             cancel (queued or running)
//
// Tenancy: every request is scoped by X-DMC-Tenant (default tenant when
// absent); another tenant's jobs are indistinguishable from absent
// ones. Config.TenantQuota bounds datasets, bytes and concurrent jobs
// per tenant; breaches answer 429 with Retry-After derived from the
// tenant's own EWMA job cost.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"dmc/internal/core"
	"dmc/internal/jobs"
)

// OpenJobs enables the async job subsystem at dir: the JOBS journal is
// replayed (incomplete jobs re-admitted) and the worker pool started
// with this server as the mine runner. Call after LoadStore/LoadDir so
// re-admitted jobs find their datasets, and before SetReady(true).
func (s *Server) OpenJobs(dir string) error {
	if s.jm != nil {
		return errors.New("server: jobs already open")
	}
	m, err := jobs.Open(dir, jobs.Options{
		Run:      s.runJob,
		Workers:  s.cfg.JobWorkers,
		Registry: s.cfg.registry(),
		Weights:  s.cfg.TenantWeights,
	})
	if err != nil {
		return err
	}
	s.jm = m
	m.Start()
	return nil
}

// CloseJobs stops the job worker pool (interrupted jobs stay journaled
// as running and resume at the next OpenJobs) and closes the journal.
// A no-op without OpenJobs.
func (s *Server) CloseJobs() error {
	if s.jm == nil {
		return nil
	}
	return s.jm.Close()
}

// jobsEnabled answers the common guard: 503 when the subsystem is not
// configured.
func (s *Server) jobsEnabled(w http.ResponseWriter, r *http.Request) bool {
	if s.jm == nil {
		writeErr(w, r, http.StatusServiceUnavailable, "async jobs are not enabled on this server (start dmcserve with -jobs-dir)")
		return false
	}
	return true
}

// checkDatasetQuota rules on adding (or replacing) a dataset of
// estimated size est under tenant's quota, counting the breach on
// dmc_tenant_quota_rejections_total. Replacing the tenant's own dataset
// frees its old footprint first.
func (s *Server) checkDatasetQuota(tenant, name string, est int64) *shedInfo {
	q := s.cfg.TenantQuota
	if q.MaxDatasets <= 0 && q.MaxBytes <= 0 {
		return nil
	}
	n, used := s.usageBeside(tenant, name)
	switch {
	case q.MaxDatasets > 0 && n >= q.MaxDatasets:
		s.metrics.tenantRejects.With(tenant, "datasets").Inc()
		return &shedInfo{
			status: http.StatusTooManyRequests, reason: shedTenantQuota,
			retryAfter: s.tenantRetryAfter(tenant),
			msg:        fmt.Sprintf("tenant %q is at its dataset quota (%d); delete one first", tenant, q.MaxDatasets),
		}
	case q.MaxBytes > 0 && used+est > q.MaxBytes:
		s.metrics.tenantRejects.With(tenant, "bytes").Inc()
		return &shedInfo{
			status: http.StatusTooManyRequests, reason: shedTenantQuota,
			retryAfter: s.tenantRetryAfter(tenant),
			msg:        fmt.Sprintf("tenant %q would exceed its byte quota (%d used + %d requested > %d)", tenant, used, est, q.MaxBytes),
		}
	}
	return nil
}

// usageBeside is tenantUsage without tenant's dataset called name,
// which the caller is about to replace.
func (s *Server) usageBeside(tenant, name string) (n int, used int64) {
	n, used = s.tenantUsage(tenant)
	if old, ok := s.getFor(tenant, name); ok {
		n--
		used -= old.bytes
	}
	return n, used
}

// byteRoom is what tenant's byte quota leaves for its dataset called
// name once that replaces the current one: unbounded without a quota.
func (s *Server) byteRoom(tenant, name string) int64 {
	q := s.cfg.TenantQuota.MaxBytes
	if q <= 0 {
		return math.MaxInt64
	}
	_, used := s.usageBeside(tenant, name)
	return q - used
}

// tenantRetryAfter derives a Retry-After for tenant-quota sheds from
// the tenant's own EWMA job cost — the best available estimate of when
// its backlog drains. Falls back to the 1s floor for tenants with no
// job history (or no job subsystem).
func (s *Server) tenantRetryAfter(tenant string) time.Duration {
	if s.jm == nil {
		return retryAfter(0)
	}
	return retryAfter(s.jm.EstimateCost(tenant))
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		s.writeShed(w, r, &shedInfo{
			status: http.StatusServiceUnavailable, reason: shedDraining,
			retryAfter: retryAfter(durOr(s.cfg.ShutdownGrace, 30*time.Second)),
			msg:        "server is draining for shutdown; submit against another replica",
		})
		return
	}
	var p jobs.Params
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		writeErr(w, r, http.StatusBadRequest, "parsing job request: %v", err)
		return
	}
	if _, ok := s.getFor(tenant, p.Dataset); !ok {
		writeErr(w, r, http.StatusNotFound, "no dataset %q", p.Dataset)
		return
	}
	if p.Workers < 0 || p.Workers > maxWorkers {
		writeErr(w, r, http.StatusBadRequest, "workers %d outside [0,%d] (0 = one per CPU)", p.Workers, maxWorkers)
		return
	}
	if p.MinSupport < 0 {
		writeErr(w, r, http.StatusBadRequest, "minsupport must be >= 0")
		return
	}
	if q := s.cfg.TenantQuota; q.MaxJobs > 0 && s.jm.Active(tenant) >= q.MaxJobs {
		s.metrics.tenantRejects.With(tenant, "jobs").Inc()
		s.writeShed(w, r, &shedInfo{
			status: http.StatusTooManyRequests, reason: shedTenantQuota,
			retryAfter: s.tenantRetryAfter(tenant),
			msg:        fmt.Sprintf("tenant %q is at its concurrent job quota (%d); wait for a job to finish or cancel one", tenant, q.MaxJobs),
		})
		return
	}
	j, err := s.jm.Submit(tenant, p)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrClosed), errors.Is(err, jobs.ErrCorrupt):
			writeErr(w, r, http.StatusServiceUnavailable, "accepting job: %v", err)
		default:
			writeErr(w, r, http.StatusBadRequest, "accepting job: %v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.jm.List(tenant))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	j, err := s.jm.Get(tenant, r.PathValue("id"))
	if err != nil {
		writeErr(w, r, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	j, err := s.jm.Cancel(tenant, r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, r, http.StatusNotFound, "no job %q", r.PathValue("id"))
	case errors.Is(err, jobs.ErrTerminal):
		writeErr(w, r, http.StatusConflict, "job %s already finished (%s)", j.ID, j.State)
	case err != nil:
		writeErr(w, r, http.StatusInternalServerError, "cancelling job: %v", err)
	default:
		writeJSON(w, http.StatusAccepted, j)
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	payload, err := s.jm.Result(tenant, id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, r, http.StatusNotFound, "no job %q", id)
	case errors.Is(err, jobs.ErrNoResult):
		writeErr(w, r, http.StatusConflict, "%v", err)
	case err != nil:
		writeErr(w, r, http.StatusInternalServerError, "reading job result: %v", err)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write(payload)
	}
}

// handleJobEvents streams a job's progress as Server-Sent Events: one
// frame per state transition, pipeline phase and stats summary, ending
// when the job reaches a terminal state. The subscription's buffer is
// bounded — a client that stops reading is dropped (the stream just
// ends) rather than allowed to backpressure the mine; a client that
// disconnects mid-stream tears the subscription down without leaking
// the handler goroutine.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w, r) {
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	sub, err := s.jm.Subscribe(tenant, id)
	if err != nil {
		writeErr(w, r, http.StatusNotFound, "no job %q", id)
		return
	}
	defer sub.Cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.C:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// runJob is the jobs.Runner this server injects into its manager: it
// runs one mine session against the tenant's dataset down the ladder
// and returns the canonical dmcrules payload. A cached result, or one
// derived from the dataset's miss counters, costs no scan (and
// publishes no phase or stats frames); a scan's result warms the
// cache. A file-backed dataset's scan replays its kept partition, as an
// HTTP mine does; env.OnResume fires when the session ran no partition
// pass. The payload is rendered deterministically — canonical sort,
// fixed text format — so a resumed session is byte-identical to an
// uninterrupted one.
func (s *Server) runJob(ctx context.Context, j jobs.Job, env jobs.RunEnv) ([]byte, int, error) {
	d, ok := s.getFor(j.Tenant, j.Params.Dataset)
	if !ok {
		return nil, 0, fmt.Errorf("dataset %q no longer exists", j.Params.Dataset)
	}
	switch j.Params.Pipeline {
	case "imp":
		return runJobMine(ctx, s, &s.imps, d, j, env)
	case "sim":
		return runJobMine(ctx, s, &s.sims, d, j, env)
	}
	return nil, 0, fmt.Errorf("unknown pipeline %q", j.Params.Pipeline)
}

// runJobMine runs job j down pl's ladder and renders the canonically
// sorted payload. The job pool has already admitted the job, so a scan
// runs directly, reporting to the job's SSE feed.
func runJobMine[R, W any](ctx context.Context, s *Server, pl *pipeline[R, W], d *dataset, j jobs.Job, env jobs.RunEnv) ([]byte, int, error) {
	var err error
	run := func(label string, mine func(context.Context, *core.Hooks) (core.Stats, error)) bool {
		var st core.Stats
		if st, err = mine(ctx, s.jobHooks(j, env)); err != nil {
			return false
		}
		s.recordMine(label, st)
		return true
	}
	sc := s.streamCfg(j.Params.Workers)
	sc.OnResume = env.OnResume
	p := params{threshold: j.Params.Threshold, minSupport: j.Params.MinSupport, workers: j.Params.Workers}
	rs, _, ok := ladder(s, pl, d, p, run, sc)
	if !ok {
		return nil, 0, err
	}
	pl.canon(rs)
	var payload bytes.Buffer
	if err := pl.write(&payload, rs); err != nil {
		return nil, 0, err
	}
	return payload.Bytes(), len(rs), nil
}

// jobHooks forwards the run's phase/stats hooks both to the server's
// metrics (as the synchronous path does) and to the job's SSE feed.
func (s *Server) jobHooks(j jobs.Job, env jobs.RunEnv) *core.Hooks {
	base := s.hooks
	return &core.Hooks{
		OnPhase: func(pipeline, phase string, d time.Duration) {
			base.OnPhase(pipeline, phase, d)
			env.Publish(jobs.Event{
				Type: jobs.EventPhase, Pipeline: pipeline, Phase: phase,
				ElapsedMS: d.Milliseconds(),
			})
		},
		OnBitmapSwitch: base.OnBitmapSwitch,
		OnStats: func(pipeline string, st core.Stats) {
			env.Publish(jobs.Event{
				Type: jobs.EventStats, Pipeline: pipeline,
				ElapsedMS: st.Total.Milliseconds(), Rules: st.NumRules,
			})
		},
	}
}
