// Command dmcserve serves the miners over HTTP/JSON: load (or upload)
// datasets, then mine implication/similarity rules and browse them by
// keyword, all through the exact DMC pipelines. The server traces every
// request, exports Prometheus-style metrics at /v1/metrics, can mount
// net/http/pprof, bounds mining work with a deadline and overload-aware
// admission control (bounded queue, deadline shedding, brownout to the
// out-of-core engine), and drains in-flight requests on SIGINT/SIGTERM
// with /v1/readyz flipping to 503 first.
//
// With -data-dir, uploads are committed to a durable, crash-recoverable
// dataset store before they are served: a restart (or SIGKILL) with the
// same directory replays the catalog journal and recovers every
// committed dataset exactly. /v1/readyz reports 503 until that replay
// and catalog load complete.
//
// Usage:
//
//	dmcserve -addr :8080 -data-dir ./dmcdata -pprof -request-timeout 1m -max-concurrent-mines 8
//
//	curl localhost:8080/v1/datasets
//	curl -X PUT --data-binary @baskets.txt localhost:8080/v1/datasets/mine
//	curl 'localhost:8080/v1/datasets/News/implications?threshold=85&limit=20'
//	curl localhost:8080/v1/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmc/internal/cache"
	"dmc/internal/fleet"
	"dmc/internal/server"
	"dmc/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address")
		data       = flag.String("data", "", "directory of matrix files to load at startup")
		dataDir    = flag.String("data-dir", "", "durable dataset store directory: uploads are committed here before they are served and the catalog is recovered on restart (empty = memory-only)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		reqTimeout = flag.Duration("request-timeout", 2*time.Minute, "deadline for one mining request, queue wait included (0 disables)")
		maxMines   = flag.Int("max-concurrent-mines", runtime.GOMAXPROCS(0), "mining requests allowed to run at once (0 = unlimited)")
		maxQueue   = flag.Int("max-queue-depth", 0, "mining requests allowed to wait behind the concurrency slots; beyond it new arrivals get 429 + Retry-After (0 = 4x max-concurrent-mines, negative = unbounded)")
		brownout   = flag.Int64("brownout-bytes", 0, "resident-mine memory ceiling; above it new resident mines degrade to the out-of-core engine instead of being rejected (0 disables)")
		drainDelay = flag.Duration("drain-delay", 0, "how long /v1/readyz reports 503 while still serving before the listener closes on shutdown (for load-balancer drain)")
		grace      = flag.Duration("shutdown-grace", 30*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		streamMin  = flag.Int64("stream-min-bytes", 0, "serve matrix blobs/files at or above this size file-backed, streaming them from disk per request (0 loads everything into memory)")
		memBudget  = flag.Int("mem-budget", 0, "counter-memory budget in bytes per resident mine; on overflow the mine degrades to out-of-core streaming (0 = unbounded)")
		cacheDir   = flag.String("cache-dir", "", "mine-result cache directory: rule sets are cached by dataset content + mining parameters and journaled, so repeat mines — even across restarts — return without a scan (empty disables the cache)")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "cache size bound; least-recently-used entries are evicted beyond it (0 = 256 MiB)")
		fleetWork  = flag.Bool("fleet-worker", false, "serve the fleet worker endpoints: accept column-shard mining tasks and dataset replicas from a coordinator")
		fleetNodes = flag.String("fleet-nodes", "", "comma-separated worker base URLs (http://host:port); makes this replica a fleet coordinator so ?fleet=1 mines scatter across the workers")
		fleetProbe = flag.Duration("fleet-probe-interval", 5*time.Second, "how often the coordinator health-probes its workers (each cycle jittered ±25%)")
		fleetBreak = flag.Int("fleet-breaker-threshold", 3, "consecutive transport failures that open a worker's circuit breaker — an open node takes no shards until a half-open health probe succeeds (negative disables the breakers)")
		fleetCool  = flag.Duration("fleet-breaker-cooldown", 10*time.Second, "how long an open breaker quarantines its worker before a half-open probe may close it")
		fleetHedge = flag.Duration("fleet-hedge-after", 0, "how long a shard dispatch waits on a straggling worker before hedging the same shard to a sibling (first success wins); 0 adapts to 2x the observed latency EWMA, negative disables hedging")
		jobsDir    = flag.String("jobs-dir", "", "async job directory: enables POST /v1/jobs with a crash-safe journal here — a SIGKILL'd server re-admits incomplete jobs at the next boot, and a job on a stored file-backed dataset resumes its kept partition from -data-dir (empty disables async jobs)")
		jobWorkers = flag.Int("job-workers", 2, "async job worker pool size")
		quotaData  = flag.Int("tenant-quota-datasets", 0, "datasets one tenant may hold (0 = unlimited)")
		quotaBytes = flag.Int64("tenant-quota-bytes", 0, "resident bytes one tenant's datasets may occupy (0 = unlimited)")
		quotaJobs  = flag.Int("tenant-quota-jobs", 0, "queued+running async jobs one tenant may hold (0 = unlimited)")
		weights    = flag.String("tenant-weights", "", "comma-separated name=weight fair-share scheduling weights (default weight 1); heavier tenants drain proportionally more queued work under contention")
	)
	flag.Parse()

	tenantWeights, err := parseWeights(*weights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmcserve:", err)
		os.Exit(1)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	cfg := server.Config{
		Logger:             logger,
		EnablePprof:        *pprofOn,
		RequestTimeout:     *reqTimeout,
		MaxConcurrentMines: *maxMines,
		MaxQueueDepth:      *maxQueue,
		BrownoutBytes:      *brownout,
		DrainDelay:         *drainDelay,
		ShutdownGrace:      *grace,
		StreamMinBytes:     *streamMin,
		MemBudgetBytes:     *memBudget,
		FleetWorker:        *fleetWork,
		JobWorkers:         *jobWorkers,
		TenantQuota: server.TenantQuota{
			MaxDatasets: *quotaData,
			MaxBytes:    *quotaBytes,
			MaxJobs:     *quotaJobs,
		},
		TenantWeights: tenantWeights,
	}
	var nodes []string
	if *fleetNodes != "" {
		nodes = strings.Split(*fleetNodes, ",")
	}
	s, ln, closer, err := setup(cfg, setupConfig{
		addr: *addr, dataDir: *data, storeDir: *dataDir,
		cacheDir: *cacheDir, cacheMaxBytes: *cacheMax,
		fleetNodes: nodes, fleetProbeInterval: *fleetProbe,
		fleetBreakerThreshold: *fleetBreak, fleetBreakerCooldown: *fleetCool,
		fleetHedgeAfter: *fleetHedge,
		jobsDir:         *jobsDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmcserve:", err)
		os.Exit(1)
	}
	defer closer.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("dmcserve listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("data_dir", *dataDir),
		slog.String("jobs_dir", *jobsDir),
		slog.Bool("pprof", *pprofOn),
		slog.Duration("request_timeout", *reqTimeout),
		slog.Int("max_concurrent_mines", *maxMines),
	)
	if err := s.Run(ctx, ln); err != nil {
		logger.Error("dmcserve", slog.Any("error", err))
		os.Exit(1)
	}
	logger.Info("dmcserve stopped")
}

// setupConfig collects dmcserve's filesystem and listener knobs.
type setupConfig struct {
	addr          string
	dataDir       string // -data: matrix files loaded at startup
	storeDir      string // -data-dir: durable dataset store
	cacheDir      string // -cache-dir: journaled mine-result cache
	cacheMaxBytes int64  // -cache-max-bytes (0 = cache default)

	fleetNodes            []string      // -fleet-nodes: worker base URLs
	fleetProbeInterval    time.Duration // -fleet-probe-interval
	fleetBreakerThreshold int           // -fleet-breaker-threshold
	fleetBreakerCooldown  time.Duration // -fleet-breaker-cooldown
	fleetHedgeAfter       time.Duration // -fleet-hedge-after

	jobsDir string // -jobs-dir: crash-safe async job journal and results
}

// parseWeights parses the -tenant-weights "name=w,name=w" list.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want name=weight)", kv)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights weight in %q (want integer >= 1)", kv)
		}
		out[name] = w
	}
	return out, nil
}

// closerFunc adapts a function to io.Closer for setup's cleanup value.
type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// setup builds the server and binds the listener; split from main for
// testability. The readiness sequence matters: the server reports
// not-ready until the store's journal replay and the catalog load have
// both completed, so a replica never serves an empty catalog. The
// returned closer (never nil) releases the store and cache and must be
// called by the caller — closing the cache compacts its journal, though
// a skipped close only costs replay work, never cached data
// correctness.
func setup(cfg server.Config, sc setupConfig) (*server.Server, net.Listener, io.Closer, error) {
	var st *store.Store
	var ca *cache.Cache
	var freg *fleet.Registry
	var srv *server.Server
	closer := closerFunc(func() error {
		var err error
		if srv != nil {
			// First: stops the job workers so nothing below is mid-write.
			err = errors.Join(err, srv.CloseJobs())
		}
		if freg != nil {
			freg.Close()
		}
		if ca != nil {
			err = errors.Join(err, ca.Close())
		}
		if st != nil {
			err = errors.Join(err, st.Close())
		}
		return err
	})
	fail := func(err error) (*server.Server, net.Listener, io.Closer, error) {
		closer.Close()
		return nil, nil, nil, err
	}
	if sc.storeDir != "" {
		var err error
		st, err = store.Open(sc.storeDir, store.Options{})
		if err != nil {
			return fail(fmt.Errorf("opening dataset store: %w", err))
		}
		cfg.Store = st
	}
	if sc.cacheDir != "" {
		var err error
		ca, err = cache.Open(sc.cacheDir, cache.Options{MaxBytes: sc.cacheMaxBytes})
		if err != nil {
			return fail(fmt.Errorf("opening mine-result cache: %w", err))
		}
		cfg.Cache = ca
	}
	if len(sc.fleetNodes) > 0 {
		var err error
		freg, err = fleet.NewRegistryOpts(sc.fleetNodes, nil, fleet.RegistryOptions{
			BreakerThreshold: sc.fleetBreakerThreshold,
			BreakerCooldown:  sc.fleetBreakerCooldown,
		})
		if err != nil {
			return fail(fmt.Errorf("building fleet registry: %w", err))
		}
		freg.Start(sc.fleetProbeInterval)
		cfg.Fleet = fleet.NewCoordinator(freg, fleet.Options{HedgeAfter: sc.fleetHedgeAfter})
	}
	s := server.NewWith(cfg)
	srv = s
	s.SetReady(false)
	if err := s.LoadStore(); err != nil {
		return fail(err)
	}
	if sc.dataDir != "" {
		if err := s.LoadDir(sc.dataDir); err != nil {
			return fail(err)
		}
	}
	// Jobs open after the catalog loads (re-admitted jobs must find
	// their datasets) and before readiness flips.
	if sc.jobsDir != "" {
		if err := s.OpenJobs(sc.jobsDir); err != nil {
			return fail(fmt.Errorf("opening job subsystem: %w", err))
		}
	}
	s.SetReady(true)
	ln, err := net.Listen("tcp", sc.addr)
	if err != nil {
		return fail(err)
	}
	return s, ln, closer, nil
}
