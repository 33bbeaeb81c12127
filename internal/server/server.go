// Package server exposes the miners over HTTP/JSON — the serving layer
// behind cmd/dmcserve. Datasets are registered by name, either resident
// in memory or file-backed (Config.StreamMinBytes routes big matrix
// files to the out-of-core streaming engine); every mining endpoint
// runs the exact DMC pipelines, so the service inherits the library's
// no-false-positives / no-false-negatives guarantee.
//
// The layer is hardened for production traffic: every request is traced
// (request id, latency, status, bytes — obs.Trace), mining endpoints
// run under a concurrency limiter and an optional per-request deadline,
// uploads are size-capped with a proper 413, dataset names are
// validated against path tricks, and Run drains in-flight requests on
// shutdown. /v1/metrics exposes the process registry (request metrics,
// mining phase durations from core.Stats, stream spill/pass counters);
// /debug/pprof can be mounted behind a config switch.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/healthz                   liveness: 200 while the process runs
//	GET  /v1/readyz                    readiness: 503 until the catalog is
//	                                   loaded and again while draining
//	GET  /v1/metrics                   Prometheus text (or ?format=json)
//	GET  /v1/datasets
//	PUT  /v1/datasets/{name}           body: basket lines (text/plain)
//	GET  /v1/datasets/{name}
//	DEL  /v1/datasets/{name}
//	POST /v1/datasets/{name}/rows      body: basket lines appended to a
//	                                   resident dataset (incremental growth)
//	GET  /v1/datasets/{name}/implications?threshold=85&minsupport=0&limit=100
//	GET  /v1/datasets/{name}/similarities?threshold=70&minsupport=0&limit=100
//	                                   workers=N (0 = one per CPU) fans the
//	                                   scan out; without it a resident scan
//	                                   takes its slot plus one idle slot
//	                                   if there is one, any other scan 1
//	GET  /v1/datasets/{name}/expand?keyword=polgar&threshold=85&depth=-1
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
	"dmc/internal/stream"
)

// Config tunes the serving layer. The zero value is production-safe:
// metrics on obs.Default, slog.Default() logging, pprof off, a 64MB
// upload cap, no mining deadline and no mining concurrency limit.
type Config struct {
	// Registry receives all metrics; nil means obs.Default.
	Registry *obs.Registry
	// Logger receives structured request and lifecycle logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// RequestTimeout bounds each mining request (queue wait included).
	// On expiry the client gets 503 and the abandoned mine finishes in
	// the background. Zero means no deadline.
	RequestTimeout time.Duration
	// MaxConcurrentMines caps mining requests running at once; excess
	// requests queue until a slot frees or their deadline expires
	// (then 429). Zero means unlimited.
	MaxConcurrentMines int
	// MaxQueueDepth bounds how many mining requests may wait behind the
	// MaxConcurrentMines slots before new arrivals are shed outright
	// (429 + Retry-After, dmc_shed_total{reason="queue_full"}). Zero
	// means 4x MaxConcurrentMines; negative means unbounded queueing.
	// Ignored when MaxConcurrentMines is 0.
	MaxQueueDepth int
	// BrownoutBytes caps the estimated bytes of resident mines running
	// at once. Above the cap a resident mine is not rejected: it browns
	// out to the out-of-core engine (spill + streamed passes), counted
	// on dmc_mines_degraded_total. Zero disables.
	BrownoutBytes int64
	// DrainDelay is how long Run keeps serving after shutdown is
	// requested with /v1/readyz already reporting 503 — the window a
	// load balancer needs to stop routing here before the listener
	// closes. Zero means no delay.
	DrainDelay time.Duration
	// Store, when set, is the durable dataset store: uploads are
	// committed to it before they are served (ENOSPC surfaces as 507),
	// LoadStore restores its catalog at boot, and the mining engines'
	// spill/degrade files live in its scratch directory.
	Store *store.Store
	// Cache, when set, is the content-addressed mine-result cache:
	// repeat mines of an unchanged (dataset, params) pair are served
	// from it in O(1), and append-only growth keeps its resumable
	// mining snapshots there. Nil disables caching.
	Cache *cache.Cache
	// MaxUploadBytes caps PUT bodies; zero means 64MB.
	MaxUploadBytes int64
	// ShutdownGrace bounds the drain of in-flight requests once Run's
	// context is canceled; zero means 30s.
	ShutdownGrace time.Duration
	// FleetWorker mounts the fleet worker endpoints (POST
	// /v1/fleet/shard, PUT /v1/fleet/datasets/{name}): this replica
	// accepts column-shard mine tasks and dataset replica pushes from a
	// fleet coordinator. The probe endpoint GET /v1/fleet/info is
	// mounted unconditionally.
	FleetWorker bool
	// Fleet, when set, makes this replica a fleet coordinator: mine
	// requests with ?fleet=1 scatter across the coordinator's worker
	// nodes and gather byte-identically to a local mine.
	Fleet *fleet.Coordinator
	// StreamMinBytes makes LoadDir register matrix files (.dmt/.dmb) at
	// or above this size as file-backed: they stay on disk and mining
	// requests stream them through the out-of-core engine instead of
	// holding the matrix in memory. Zero disables (everything loads).
	StreamMinBytes int64
	// MemBudgetBytes bounds each mine's candidate-counter memory
	// (core.Options.MemBudgetBytes). A resident mine that overflows the
	// budget degrades gracefully: the matrix is spilled to a temp file
	// and re-mined through the partitioned out-of-core engine instead of
	// failing. Zero means unlimited.
	MemBudgetBytes int
	// JobWorkers is the async job pool size behind /v1/jobs (zero means
	// the jobs package default). Effective once OpenJobs is called.
	JobWorkers int
	// TenantQuota bounds each tenant's resource consumption; the zero
	// value disables all quotas. Breaches answer 429 with a Retry-After
	// derived from the tenant's own EWMA job cost.
	TenantQuota TenantQuota
	// TenantWeights are the fair-share scheduling weights used by both
	// the synchronous admission queue and the async job pool (missing
	// or < 1 means weight 1).
	TenantWeights map[string]int
}

// TenantQuota is one tenant's resource ceiling. Zero fields are
// unlimited.
type TenantQuota struct {
	// MaxDatasets caps datasets a tenant may own at once.
	MaxDatasets int
	// MaxBytes caps the total estimated bytes of a tenant's datasets.
	MaxBytes int64
	// MaxJobs caps a tenant's concurrently active (queued or running)
	// async jobs.
	MaxJobs int
}

func (c Config) registry() *obs.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return obs.Default
}

func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

func (c Config) maxUploadBytes() int64 {
	if c.MaxUploadBytes > 0 {
		return c.MaxUploadBytes
	}
	return 64 << 20
}

func durOr(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// serverMetrics are the mining-side series; request-side series are
// owned by obs.Trace. All constructors are get-or-create, so multiple
// Server instances on one registry share series.
type serverMetrics struct {
	phase     *obs.HistogramVec // pipeline, phase
	switches  *obs.CounterVec   // pipeline, phase
	runs      *obs.CounterVec   // pipeline
	rules     *obs.CounterVec   // pipeline
	candAdd   obs.Counter
	candDel   obs.Counter
	peakBytes obs.Gauge
	inflight  obs.Gauge
	queued    obs.Gauge
	shed      *obs.CounterVec // reason
	rejected  obs.Counter
	timeouts  obs.Counter
	cancelled obs.Counter
	degraded  obs.Counter
	datasets  obs.Gauge
	incMines  *obs.CounterVec // pipeline
	appends   obs.Counter

	tenantDatasets *obs.GaugeVec   // tenant
	tenantBytes    *obs.GaugeVec   // tenant
	tenantRejects  *obs.CounterVec // tenant, resource
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		phase: reg.HistogramVec("dmc_mine_phase_seconds",
			"Mining phase durations from core.Stats.", nil, "pipeline", "phase"),
		switches: reg.CounterVec("dmc_mine_bitmap_switches_total",
			"Phases that switched to DMC-bitmap.", "pipeline", "phase"),
		runs: reg.CounterVec("dmc_mine_runs_total",
			"Completed mining runs.", "pipeline"),
		rules: reg.CounterVec("dmc_mine_rules_total",
			"Rules emitted by mining runs.", "pipeline"),
		candAdd: reg.Counter("dmc_mine_candidates_added_total",
			"Candidate-list insertions across mining runs."),
		candDel: reg.Counter("dmc_mine_candidates_deleted_total",
			"Dynamic candidate deletions across mining runs."),
		peakBytes: reg.Gauge("dmc_mine_peak_counter_bytes",
			"Largest counter-array size seen by any mining run."),
		inflight: reg.Gauge("dmc_mines_inflight",
			"Mining requests currently executing."),
		queued: reg.Gauge("dmc_mine_queue_depth",
			"Mining requests waiting for an admission slot."),
		shed: reg.CounterVec("dmc_shed_total",
			"Mining requests shed by admission control.", "reason"),
		rejected: reg.Counter("dmc_mines_rejected_total",
			"Mining requests rejected by the concurrency limiter."),
		timeouts: reg.Counter("dmc_mines_timeout_total",
			"Mining requests that exceeded their deadline."),
		cancelled: reg.Counter("dmc_mines_cancelled_total",
			"Mining operations aborted by context cancellation or deadline."),
		degraded: reg.Counter("dmc_mines_degraded_total",
			"Resident mines that overflowed the memory budget or brownout ceiling and re-ran out of core."),
		datasets: reg.Gauge("dmc_datasets_loaded",
			"Datasets currently resident in memory."),
		incMines: reg.CounterVec("dmc_incremental_mines_total",
			"Mines answered by deriving rules from a resumable snapshot instead of scanning.", "pipeline"),
		appends: reg.Counter("dmc_dataset_appends_total",
			"Row-append requests applied to datasets."),
		tenantDatasets: reg.GaugeVec("dmc_tenant_datasets",
			"Datasets owned per tenant namespace.", "tenant"),
		tenantBytes: reg.GaugeVec("dmc_tenant_bytes",
			"Estimated dataset bytes owned per tenant namespace.", "tenant"),
		tenantRejects: reg.CounterVec("dmc_tenant_quota_rejections_total",
			"Requests refused by a tenant quota.", "tenant", "resource"),
	}
}

// dataset is one served dataset: either resident in memory (m != nil)
// or file-backed (path != ""), in which case mining requests stream it
// from disk through the out-of-core engine. hash is the content
// address ("sha256-<hex>", the store's blob identity) used to key the
// mine-result cache; empty means this dataset's results are not
// cacheable (a file-backed dataset that never went through the store).
type dataset struct {
	m *matrix.Matrix
	// prep memoizes m's threshold-independent mining work (ones(c) and
	// the 100% rules); add sets it for every resident dataset. Any
	// change to the data builds a new dataset, so it never goes stale.
	prep *core.Prepared
	path string
	// slot holds a file-backed dataset's kept partition; add opens it
	// and the registration's end closes it.
	slot *partSlot
	hash string
	info DatasetInfo
	// tenant is the owning namespace; "" means the default tenant
	// (datasets recovered from the store or loaded from disk at boot
	// land there — the store catalog predates tenancy and carries no
	// owner).
	tenant string
	// bytes is the dataset's estimated storage footprint for the
	// per-tenant byte quota: the committed blob size for durable
	// datasets, the resident-footprint estimate otherwise.
	bytes int64
}

// label names column c: real labels for in-memory datasets that have
// them, the matrix's "c<id>" placeholder otherwise. File-backed
// datasets never carry labels (they are never parsed whole).
func (d *dataset) label(c matrix.Col) string {
	if d.m != nil {
		return d.m.Label(c)
	}
	return "c" + strconv.FormatUint(uint64(c), 10)
}

// Server is the HTTP handler. The zero value is not usable; construct
// with New or NewWith.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*dataset

	cfg     Config
	metrics *serverMetrics
	hooks   *core.Hooks
	adm     *admission    // nil = unlimited
	st      *store.Store  // nil = memory-only serving
	rc      *cache.Cache  // nil = no result caching
	jm      *jobs.Manager // nil = async jobs not enabled
	kept    *keptSet      // file-backed datasets' kept partitions

	// appendMu serializes POST rows requests: an append reads the
	// current registration, grows it, and swaps it, and two interleaved
	// appends would lose one's rows.
	appendMu sync.Mutex
	// appendQueued, when set, runs between an append's first lookup and
	// its wait on appendMu; tests use it to swap the dataset meanwhile.
	appendQueued func()

	// ready gates /v1/readyz: false until the catalog is loaded (set by
	// the embedding binary around LoadStore/LoadDir) and irrelevant once
	// draining is set, which also sheds new mining requests.
	ready    atomic.Bool
	draining atomic.Bool
	resident atomic.Int64 // brownout ledger: bytes of resident mines running

	// The two rule families' pipelines; tests swap their engines.
	imps pipeline[rules.Implication, ImplicationWire]
	sims pipeline[rules.Similarity, SimilarityWire]
}

// New returns an empty server with the default Config.
func New() *Server { return NewWith(Config{}) }

// NewWith returns an empty server with the given Config.
func NewWith(cfg Config) *Server {
	s := &Server{
		datasets: make(map[string]*dataset),
		cfg:      cfg,
		metrics:  newServerMetrics(cfg.registry()),
		imps:     impPipeline,
		sims:     simPipeline,
	}
	s.adm = newAdmission(cfg.MaxConcurrentMines, cfg.MaxQueueDepth, cfg.TenantWeights)
	s.kept = newKeptSet(cfg.registry())
	s.st = cfg.Store
	s.rc = cfg.Cache
	// Library users get a ready server out of the box; binaries that
	// load a catalog first call SetReady(false) before listening.
	s.ready.Store(true)
	m := s.metrics
	s.hooks = &core.Hooks{
		OnPhase: func(pipeline, phase string, d time.Duration) {
			m.phase.With(pipeline, phase).Observe(d.Seconds())
		},
		OnBitmapSwitch: func(pipeline, phase string, pos int) {
			m.switches.With(pipeline, phase).Inc()
		},
	}
	return s
}

// SetReady flips what /v1/readyz reports. Binaries that restore a
// catalog at boot call SetReady(false) before listening and
// SetReady(true) once the catalog is served, so a load balancer never
// routes to a replica that would 404 every dataset.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether /v1/readyz currently returns 200.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Add registers (or replaces) an in-memory dataset under the given
// name.
func (s *Server) Add(name string, m *matrix.Matrix) {
	d := &dataset{m: m, info: info(name, m)}
	if s.wantHash() {
		if h, err := store.ContentHash(m); err == nil {
			d.hash = h
		}
	}
	s.add(name, d)
}

// wantHash reports whether resident datasets should be content-
// addressed even without a durable store behind them: the mine-result
// cache keys by hash, and fleet coordination uses it as the replica
// identity (coordinator and worker sides both).
func (s *Server) wantHash() bool {
	return s.rc != nil || s.cfg.Fleet != nil || s.cfg.FleetWorker
}

// AddFile registers a file-backed dataset: only the header is read
// here; mining requests stream the rows from disk through the
// out-of-core engine. The file must outlive the server.
func (s *Server) AddFile(name, path string) error {
	d, err := fileDataset(name, path)
	if err != nil {
		return err
	}
	s.add(name, d)
	return nil
}

// fileDataset describes the matrix file at path as a file-backed
// dataset, reading only its header. Callers set the rest (owner,
// content address, durability) before s.add publishes it: readers
// take its fields without the lock.
func fileDataset(name, path string) (*dataset, error) {
	rr, closer, err := matrix.OpenRowReader(path)
	if err != nil {
		return nil, err
	}
	closer.Close()
	return &dataset{path: path, info: DatasetInfo{
		Name: name, Rows: rr.NumRows(), Cols: rr.NumCols(), Streamed: true,
	}}, nil
}

func (s *Server) add(name string, d *dataset) {
	if d.m != nil {
		d.prep = core.Prepare(d.m)
	} else {
		d.slot = s.kept.open()
	}
	s.mu.Lock()
	old := s.datasets[name]
	s.datasets[name] = d
	s.metrics.datasets.Set(int64(len(s.datasets)))
	s.mu.Unlock()
	if old != nil {
		s.kept.close(old.slot)
	}
}

// get returns the named dataset.
func (s *Server) get(name string) (*dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.datasets[name]
	return d, ok
}

// defaultTenant is the namespace of requests without an X-DMC-Tenant
// header — and of every dataset that predates tenancy (store recovery,
// LoadDir, fleet replica pushes).
const defaultTenant = "default"

// tenantHeader names the request's tenant namespace.
const tenantHeader = "X-DMC-Tenant"

// owner is the dataset's effective tenant ("" normalizes to the
// default namespace).
func (d *dataset) owner() string {
	if d.tenant == "" {
		return defaultTenant
	}
	return d.tenant
}

// requestTenant is the request's tenant namespace: the validated
// X-DMC-Tenant header, defaultTenant when absent, "" when malformed
// (handlers answer 400 via tenantOf; the admission path treats "" as
// its own bucket, which is harmless for a request that will 400).
func requestTenant(r *http.Request) string {
	t := r.Header.Get(tenantHeader)
	if t == "" {
		return defaultTenant
	}
	if !jobs.ValidTenant(t) {
		return ""
	}
	return t
}

// tenantOf validates the request's tenant, answering 400 on a
// malformed header.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	t := requestTenant(r)
	if t == "" {
		writeErr(w, r, http.StatusBadRequest,
			"invalid %s header %q: want a leading alphanumeric, then alphanumerics, '.', '_' or '-' (max 64 chars)",
			tenantHeader, r.Header.Get(tenantHeader))
		return "", false
	}
	return t, true
}

// getFor returns the named dataset if tenant owns it. Other tenants'
// datasets are indistinguishable from absent ones — namespaces do not
// leak existence.
func (s *Server) getFor(tenant, name string) (*dataset, bool) {
	d, ok := s.get(name)
	if !ok || d.owner() != tenant {
		return nil, false
	}
	return d, true
}

// tenantUsage sums tenant's owned datasets and bytes for quota checks
// and the dmc_tenant_* gauges.
func (s *Server) tenantUsage(tenant string) (n int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range s.datasets {
		if d.owner() == tenant {
			n++
			bytes += d.bytes
		}
	}
	return n, bytes
}

// noteTenantUsage refreshes the tenant's dataset gauges after an add,
// replace or delete.
func (s *Server) noteTenantUsage(tenant string) {
	n, b := s.tenantUsage(tenant)
	s.metrics.tenantDatasets.With(tenant).Set(int64(n))
	s.metrics.tenantBytes.With(tenant).Set(b)
}

// Handler returns the HTTP routing table wrapped in the tracing
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.draining.Load():
			// Retry-After on every 503 (not just admission sheds): fleet
			// coordinators and external clients back off uniformly.
			setRetryAfter(w, retryAfter(durOr(s.cfg.ShutdownGrace, 30*time.Second)))
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		case !s.ready.Load():
			setRetryAfter(w, retryAfter(time.Second))
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "loading"})
		default:
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		}
	})
	mux.Handle("GET /v1/metrics", s.cfg.registry().Handler())
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("PUT /v1/datasets/{name}", s.handlePut)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleDescribe)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/datasets/{name}/rows", s.handleAppend)
	mux.HandleFunc("GET /v1/datasets/{name}/implications", handleMine(s, &s.imps))
	mux.HandleFunc("GET /v1/datasets/{name}/similarities", handleMine(s, &s.sims))
	mux.HandleFunc("GET /v1/datasets/{name}/expand", s.handleExpand)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET "+fleet.InfoPath, s.handleFleetInfo)
	if s.cfg.FleetWorker {
		mux.HandleFunc("POST "+fleet.ShardPath, s.handleFleetShard)
		mux.HandleFunc("PUT "+fleet.DatasetsPath+"{name}", s.handleFleetDataset)
	}
	if s.cfg.Fleet != nil {
		mux.HandleFunc("GET /v1/fleet/status", s.handleFleetStatus)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return obs.Trace(mux, obs.TraceConfig{
		Registry: s.cfg.registry(),
		Logger:   s.cfg.Logger,
		Endpoint: endpointLabel,
		Prefix:   "dmc_http",
	})
}

// endpointLabel collapses path parameters so metric label cardinality
// stays bounded no matter what clients request.
func endpointLabel(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/debug/pprof/") {
		return "/debug/pprof"
	}
	seg := strings.Split(strings.Trim(p, "/"), "/")
	if len(seg) >= 3 && seg[0] == "v1" && seg[1] == "fleet" && seg[2] == "datasets" {
		return "/v1/fleet/datasets/{name}"
	}
	if len(seg) >= 2 && seg[0] == "v1" && seg[1] == "jobs" {
		switch {
		case len(seg) == 2:
			return "/v1/jobs"
		case len(seg) == 4 && (seg[3] == "events" || seg[3] == "result"):
			return "/v1/jobs/{id}/" + seg[3]
		default:
			return "/v1/jobs/{id}"
		}
	}
	if len(seg) >= 3 && seg[0] == "v1" && seg[1] == "datasets" {
		if len(seg) == 3 {
			return "/v1/datasets/{name}"
		}
		switch seg[3] {
		case "implications", "similarities", "expand", "rows":
			return "/v1/datasets/{name}/" + seg[3]
		}
		return "/v1/datasets/{name}/other"
	}
	switch p {
	case "/v1/healthz", "/v1/readyz", "/v1/metrics", "/v1/datasets",
		fleet.InfoPath, fleet.ShardPath, "/v1/fleet/status":
		return p
	}
	return "other"
}

// Run serves the handler on ln until ctx is canceled, then shuts down
// gracefully: /v1/readyz flips to 503 and new mining requests are shed
// immediately, the listener stays open for Config.DrainDelay so load
// balancers notice, then it closes and in-flight requests get up to
// Config.ShutdownGrace to finish. Returns nil on a clean drained
// shutdown. Either way the file-backed datasets' kept partitions are
// removed, each once no mine replays it.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	defer s.kept.closeAll()
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(s.cfg.logger().Handler(), slog.LevelWarn),
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	s.draining.Store(true)
	if d := s.cfg.DrainDelay; d > 0 {
		// Readiness already reports 503; keep accepting until the load
		// balancer has had time to stop sending traffic here.
		select {
		case err := <-errc:
			return err
		case <-time.After(d):
		}
	}
	grace := durOr(s.cfg.ShutdownGrace, 30*time.Second)
	s.cfg.logger().Info("shutting down", slog.Duration("grace", grace))
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(dctx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// DatasetInfo is the wire form of a dataset summary. Streamed datasets
// report Ones as 0: only the file header is read at registration, and
// the ones count would need a full scan.
type DatasetInfo struct {
	Name     string `json:"name"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	Ones     int    `json:"ones"`
	Labeled  bool   `json:"labeled"`
	Streamed bool   `json:"streamed,omitempty"`
	Durable  bool   `json:"durable,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	s.mu.RLock()
	out := make([]DatasetInfo, 0, len(s.datasets))
	for _, d := range s.datasets {
		if d.owner() == tenant {
			out = append(out, d.info)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func info(name string, m *matrix.Matrix) DatasetInfo {
	return DatasetInfo{Name: name, Rows: m.NumRows(), Cols: m.NumCols(), Ones: m.NumOnes(), Labeled: m.Labels() != nil}
}

// datasetNameRE admits sane file-system-ish names: a leading
// alphanumeric, then up to 127 alphanumerics, dots, underscores or
// dashes. Path separators and leading dots never match, which blocks
// traversal tricks before they reach any storage layer.
var datasetNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

func validDatasetName(name string) bool {
	return datasetNameRE.MatchString(name) && !strings.Contains(name, "..")
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validDatasetName(name) {
		writeErr(w, r, http.StatusBadRequest, "invalid dataset name %q: want a leading alphanumeric, then alphanumerics, '.', '_' or '-' (max 128 chars, no '..')", name)
		return
	}
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	if existing, ok := s.get(name); ok && existing.owner() != tenant {
		// Dataset names are global (the store catalog is flat); the
		// namespace guards ownership, not naming. A name taken by another
		// tenant cannot be replaced or probed further.
		writeErr(w, r, http.StatusConflict, "dataset name %q is taken", name)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxUploadBytes())
	m, err := matrix.ReadBaskets(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, r, http.StatusRequestEntityTooLarge, "body exceeds the %d-byte upload limit", tooBig.Limit)
			return
		}
		writeErr(w, r, http.StatusBadRequest, "parsing baskets: %v", err)
		return
	}
	if m.NumRows() == 0 || m.NumOnes() == 0 {
		writeErr(w, r, http.StatusBadRequest, "dataset has no transactions")
		return
	}
	est := residentFootprint(m.NumOnes(), m.NumCols())
	if shed := s.checkDatasetQuota(tenant, name, est); shed != nil {
		s.writeShed(w, r, shed)
		return
	}
	inf := info(name, m)
	var hash string
	size := est
	if s.st != nil {
		// Durability before visibility: the upload is committed to the
		// store first, so a dataset a client was told about can never
		// vanish in a restart.
		e, err := s.st.Put(name, m)
		if err != nil {
			writeStoreErr(w, r, "persisting dataset", err)
			return
		}
		inf.Durable = true
		hash = e.Hash
		size = e.Size
		if s.cfg.StreamMinBytes > 0 && e.Size >= s.cfg.StreamMinBytes {
			// Mirror LoadStore's routing at upload time: a blob this big
			// is served file-backed from its committed blob immediately,
			// not held resident until the next restart happens to route
			// it correctly.
			d, err := fileDataset(name, e.Path)
			if err != nil {
				writeErr(w, r, http.StatusInternalServerError, "registering dataset as streamed: %v", err)
				return
			}
			d.info.Durable, d.hash, d.tenant, d.bytes = true, hash, tenant, size
			s.add(name, d)
			s.noteTenantUsage(tenant)
			writeJSON(w, http.StatusCreated, d.info)
			return
		}
	} else if s.wantHash() {
		if h, err := store.ContentHash(m); err == nil {
			hash = h
		}
	}
	s.add(name, &dataset{m: m, info: inf, hash: hash, tenant: tenant, bytes: size})
	s.noteTenantUsage(tenant)
	writeJSON(w, http.StatusCreated, inf)
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, d.info)
}

// runMine is the ladder's runner for request r: it executes mine under
// admission control and the per-request deadline, recording run
// metrics on success. Admission may shed the request outright —
// draining server, full queue, or a deadline the queue-wait estimate
// already proves unmeetable — with 429/503 plus Retry-After. The
// context handed to mine is the request's own (so a client disconnect
// cancels an abandoned mine) bounded by RequestTimeout; the pipelines
// observe it via core.Options.Ctx and abort at their next interrupt
// poll, which is what frees the admission slot promptly instead of
// burning CPU for a caller that is gone. On shed or deadline expiry the
// error response is written here and false returned; typed mining
// failures map to stable statuses (503 cancelled/deadline, 507 memory
// budget, storeStatus otherwise: 507 for a full disk).
func (s *Server) runMine(w http.ResponseWriter, r *http.Request) runner {
	return func(pipeline string, mine func(context.Context, *core.Hooks) (core.Stats, error)) bool {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if s.draining.Load() {
			s.writeShed(w, r, &shedInfo{
				status: http.StatusServiceUnavailable, reason: shedDraining,
				retryAfter: retryAfter(durOr(s.cfg.ShutdownGrace, 30*time.Second)),
				msg:        "server is draining for shutdown; retry against another replica",
			})
			return false
		}
		s.metrics.queued.Set(s.adm.queueDepth())
		release, shed := s.adm.acquire(ctx, requestTenant(r))
		s.metrics.queued.Set(s.adm.queueDepth())
		if shed != nil {
			s.writeShed(w, r, shed)
			return false
		}
		s.metrics.inflight.Inc()
		start := time.Now()
		type result struct {
			st  core.Stats
			err error
		}
		ch := make(chan result, 1)
		go func() {
			st, err := mine(ctx, s.hooks)
			// Free the slot before the result reaches the handler, so
			// a client's next mine, sent once this reply arrives, finds
			// it idle (residentWorkers borrows idle slots).
			s.metrics.inflight.Dec()
			s.adm.observe(time.Since(start))
			release()
			ch <- result{st, err}
		}()
		select {
		case <-ctx.Done():
			s.metrics.timeouts.Inc()
			setRetryAfter(w, s.adm.estRetryAfter())
			writeErr(w, r, http.StatusServiceUnavailable, "mining did not finish before the request deadline; narrow the query or raise the limit")
			return false
		case res := <-ch:
			switch {
			case res.err == nil:
				s.recordMine(pipeline, res.st)
				return true
			case errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded):
				s.metrics.timeouts.Inc()
				setRetryAfter(w, s.adm.estRetryAfter())
				writeErr(w, r, http.StatusServiceUnavailable, "mining was cancelled: %v", res.err)
			case isBudgetErr(res.err):
				writeErr(w, r, http.StatusInsufficientStorage, "mining exceeded the memory budget: %v", res.err)
			default:
				s.cfg.logger().Error("mine failed", slog.String("pipeline", pipeline),
					slog.String("request_id", obs.RequestID(r.Context())), slog.Any("error", res.err))
				writeErr(w, r, storeStatus(res.err), "mining failed: %v", res.err)
			}
			return false
		}
	}
}

func isBudgetErr(err error) bool {
	var be *core.BudgetError
	return errors.As(err, &be)
}

// noteCancelled counts a context-aborted resident mine on
// dmc_mines_cancelled_total (the streamed path counts its own aborts in
// the stream package — same series, shared by name), passing err
// through.
func (s *Server) noteCancelled(err error) error {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		s.metrics.cancelled.Inc()
	}
	return err
}

// residentFootprint estimates the memory a resident mine of a matrix
// with ones ones and cols columns holds — the matrix rows plus the
// O(cols) counter arrays — for the brownout
// ledger. A rough proxy is fine: the ledger shapes load, it does not
// enforce a hard limit (core.Options.MemBudgetBytes does that).
func residentFootprint(ones, cols int) int64 {
	return int64(ones)*8 + int64(cols)*16
}

// footprint is residentFootprint of a resident dataset, from the ones
// count its info already carries instead of a walk over every row.
func (d *dataset) footprint() int64 {
	return residentFootprint(d.info.Ones, d.info.Cols)
}

// scratchDir is where spill and degrade files land: the durable
// store's scratch directory when one is configured (swept at every
// boot, so a SIGKILLed mine leaves no debris), the OS temp dir
// otherwise.
func (s *Server) scratchDir() string {
	if s.st != nil {
		return s.st.ScratchDir()
	}
	return ""
}

// autoWidth is the widest resident scan a request that names no
// workers gets. Each worker walks every row, so a worker past the
// first buys less than one whole CPU; two is the only width measured
// (EXPERIMENTS.md, "Resident mines take the idle CPU").
const autoWidth = 2

// residentWorkers is the worker count of p's resident scan, and done
// ends it. A request that named workers gets them. One that did not
// runs a worker on its own admission slot plus one on each idle slot
// it borrows (admission.borrow), up to autoWidth and GOMAXPROCS; until
// done gives them back, a mine that arrives queues for those slots
// instead of running beside the scan. Without a limiter there is no
// slot to borrow, and with MemBudgetBytes set every worker would get
// only a share of the budget (core.Options.MemBudgetBytes), so both
// stay at one worker.
func (s *Server) residentWorkers(p params) (workers int, done func()) {
	if !p.autoWorkers || s.cfg.MemBudgetBytes > 0 {
		return p.workers, func() {}
	}
	n, done := s.adm.borrow(min(autoWidth, runtime.GOMAXPROCS(0)) - 1)
	return 1 + n, done
}

// streamCfg is the out-of-core engine configuration for one mine; the
// caller sets its context.
func (s *Server) streamCfg(workers int) stream.Config {
	return stream.Config{Workers: workers, TmpDir: s.scratchDir()}
}

// recordMine feeds one run's core.Stats into the registry; phase
// durations and bitmap switches already arrived via s.hooks.
func (s *Server) recordMine(pipeline string, st core.Stats) {
	m := s.metrics
	m.runs.With(pipeline).Inc()
	m.rules.With(pipeline).Add(int64(st.NumRules))
	m.candAdd.Add(int64(st.CandidatesAdded))
	m.candDel.Add(int64(st.CandidatesDeleted))
	m.peakBytes.Max(int64(st.PeakCounterBytes))
}

// ImplicationWire is the wire form of an implication rule.
type ImplicationWire struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	Confidence float64 `json:"confidence"`
	Hits       int     `json:"hits"`
	Ones       int     `json:"ones"`
}

// MineResponse wraps a mined rule list with run metadata. Source
// reports how the rules were obtained: "" for a full scan, "cache" for
// an O(1) cached result, "incremental" for a derivation from the
// resumable snapshot.
type MineResponse[R any] struct {
	Dataset   string `json:"dataset"`
	Threshold int    `json:"threshold_percent"`
	Total     int    `json:"total_rules"`
	Truncated bool   `json:"truncated"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Source    string `json:"source,omitempty"`
	Rules     []R    `json:"rules"`
}

// SimilarityWire is the wire form of a similarity rule.
type SimilarityWire struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Similarity float64 `json:"similarity"`
	Hits       int     `json:"hits"`
	OnesA      int     `json:"ones_a"`
	OnesB      int     `json:"ones_b"`
}

// ExpandGroupWire is one antecedent's rules in an expansion response.
type ExpandGroupWire struct {
	From  string            `json:"from"`
	Rules []ImplicationWire `json:"rules"`
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
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
	if d.m == nil {
		writeErr(w, r, http.StatusBadRequest, "dataset %q is file-backed (streamed) and has no labels; expansion needs a labeled in-memory dataset", name)
		return
	}
	m := d.m
	if m.Labels() == nil {
		writeErr(w, r, http.StatusBadRequest, "dataset %q has no labels", name)
		return
	}
	keyword := r.URL.Query().Get("keyword")
	if keyword == "" {
		writeErr(w, r, http.StatusBadRequest, "missing keyword parameter")
		return
	}
	p, err := mineParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	depth, err := intParam(r, "depth", -1)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if depth < -1 {
		writeErr(w, r, http.StatusBadRequest, "depth must be -1 (unlimited) or >= 0")
		return
	}
	p.fleet = false // an expansion mines on this node
	rs, _, ok := ladder(s, &s.imps, d, p, s.runMine(w, r), s.streamCfg(p.workers))
	if !ok {
		return
	}
	groups, ok := rules.ExpandByLabel(rs, m, keyword, depth)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "keyword %q is not a column label", keyword)
		return
	}
	out := make([]ExpandGroupWire, 0, len(groups))
	for _, g := range groups {
		gw := ExpandGroupWire{From: m.Label(g.From)}
		for _, rule := range g.Rules {
			gw.Rules = append(gw.Rules, s.imps.wire(m.Label, rule))
		}
		out = append(out, gw)
	}
	writeJSON(w, http.StatusOK, out)
}

type params struct {
	threshold  int
	minSupport int
	limit      int
	workers    int
	// autoWorkers is set when the request named no workers: its
	// resident scan then sizes itself (residentWorkers), and every
	// other scan uses workers, which is 1.
	autoWorkers bool
	fleet       bool
	// shard is set only by the fleet shard handler: it restricts rule
	// ownership to a column range and — via paramsKey — keys the cache
	// so a partial result can never alias a full-mine entry.
	shard *core.ShardRange
}

// maxWorkers caps the workers query parameter: mining goroutines are
// cheap but a request must not be able to ask for thousands of them.
const maxWorkers = 128

func mineParams(r *http.Request) (params, error) {
	p := params{threshold: 85, limit: 100}
	var err error
	if p.threshold, err = intParam(r, "threshold", 85); err != nil {
		return p, err
	}
	if p.threshold < 1 || p.threshold > 100 {
		return p, fmt.Errorf("threshold %d outside [1,100]", p.threshold)
	}
	if p.minSupport, err = intParam(r, "minsupport", 0); err != nil {
		return p, err
	}
	if p.minSupport < 0 {
		return p, fmt.Errorf("minsupport must be >= 0")
	}
	if p.limit, err = intParam(r, "limit", 100); err != nil {
		return p, err
	}
	if p.limit <= 0 {
		return p, fmt.Errorf("limit must be positive")
	}
	p.autoWorkers = r.URL.Query().Get("workers") == ""
	if p.workers, err = intParam(r, "workers", 1); err != nil {
		return p, err
	}
	if p.workers < 0 || p.workers > maxWorkers {
		return p, fmt.Errorf("workers %d outside [0,%d] (0 = one per CPU)", p.workers, maxWorkers)
	}
	if p.fleet, err = boolParam(r, "fleet"); err != nil {
		return p, err
	}
	return p, nil
}

// boolParam parses an optional boolean query parameter; absent means
// false, anything other than 0/1/true/false is a client error.
func boolParam(r *http.Request, name string) (bool, error) {
	switch v := r.URL.Query().Get(name); v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("bad %s parameter %q (want 0/1/true/false)", name, v)
	}
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", name, v)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is gone; nothing more to do than drop the conn.
		_ = err
	}
}

// setRetryAfter stamps the whole-seconds Retry-After header: every 503
// this server writes carries one, so fleet coordinators and external
// clients back off uniformly instead of special-casing admission sheds.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	w.Header().Set("Retry-After", strconv.FormatInt(int64(d/time.Second), 10))
}

// writeErr emits the structured error body {"error", "request_id"}:
// machine-readable, and the id lets a client report a failure the
// operator can match to the trace logs.
func writeErr(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if id := obs.RequestID(r.Context()); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, status, body)
}

// writeStoreErr answers a failed store operation with storeStatus.
func writeStoreErr(w http.ResponseWriter, r *http.Request, what string, err error) {
	writeErr(w, r, storeStatus(err), "%s: %v", what, err)
}

// storeStatus is the status of a request that failed on disk: a full
// disk is 507, a poisoned store 503 (the replica needs a restart; go
// elsewhere), anything else 500. Store writes and streamed mines, whose
// kept partitions are written to the store's scratch dir, share it.
func storeStatus(err error) int {
	switch {
	case errors.Is(err, syscall.ENOSPC):
		return http.StatusInsufficientStorage
	case errors.Is(err, store.ErrCorrupt):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// LoadStore registers every dataset in Config.Store's recovered
// catalog: blobs at or above Config.StreamMinBytes stay on disk and
// mine through the out-of-core engine; the rest load into memory with
// their labels. Each bills its stored size to the default tenant, as
// its PUT did. Call after Open has replayed the journal and before
// SetReady(true).
func (s *Server) LoadStore() error {
	if s.st == nil {
		return nil
	}
	entries := s.st.List()
	for _, e := range entries {
		if s.cfg.StreamMinBytes > 0 && e.Size >= s.cfg.StreamMinBytes {
			d, err := fileDataset(e.Name, e.Path)
			if err != nil {
				return fmt.Errorf("registering stored dataset %q as streamed: %w", e.Name, err)
			}
			d.info.Durable, d.hash, d.bytes = true, e.Hash, e.Size
			s.add(e.Name, d)
			continue
		}
		m, err := s.st.Load(e.Name)
		if err != nil {
			return fmt.Errorf("loading stored dataset %q: %w", e.Name, err)
		}
		inf := info(e.Name, m)
		inf.Durable = true
		s.add(e.Name, &dataset{m: m, info: inf, hash: e.Hash, bytes: e.Size})
	}
	if len(entries) > 0 {
		s.noteTenantUsage(defaultTenant)
	}
	return nil
}

// LoadDir loads every matrix file in dir into the server, named by the
// file's base name without extension. Unknown extensions are skipped.
// When Config.StreamMinBytes is set, .dmt/.dmb files at or above that
// size are registered file-backed instead of loaded: their rows stay on
// disk and mining requests stream them through the out-of-core engine.
func (s *Server) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := filepath.Ext(e.Name())
		if ext != matrix.ExtText && ext != matrix.ExtBinary && ext != matrix.ExtBasket {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ext)
		path := filepath.Join(dir, e.Name())
		if s.cfg.StreamMinBytes > 0 && ext != matrix.ExtBasket {
			fi, err := e.Info()
			if err != nil {
				return fmt.Errorf("loading %s: %w", e.Name(), err)
			}
			if fi.Size() >= s.cfg.StreamMinBytes {
				if err := s.AddFile(name, path); err != nil {
					return fmt.Errorf("registering %s as streamed: %w", e.Name(), err)
				}
				continue
			}
		}
		m, err := matrix.Load(path)
		if err != nil {
			return fmt.Errorf("loading %s: %w", e.Name(), err)
		}
		s.Add(name, m)
	}
	return nil
}
