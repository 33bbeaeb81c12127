package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dmc/internal/fault"
	"dmc/internal/obs"
	"dmc/internal/store"
)

// State is a job's lifecycle position. Transitions: queued → running →
// done | failed | cancelled; a queued job can also go straight to
// cancelled, and a SIGKILL mid-run replays as queued at the next boot
// (the journal's last record says "running", which re-admits).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Params is the mine specification a job executes — the async
// counterpart of the synchronous mine endpoints' query parameters.
type Params struct {
	Dataset    string `json:"dataset"`
	Pipeline   string `json:"pipeline"` // "imp" | "sim"
	Threshold  int    `json:"threshold"`
	MinSupport int    `json:"minsupport,omitempty"`
	Workers    int    `json:"workers,omitempty"`
}

// Job is one asynchronous mine. Every mutation is journaled before it
// becomes visible, so the struct doubles as the journal record.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Params Params `json:"params"`
	State  State  `json:"state"`
	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Result is the content address of the committed result blob for
	// StateDone — journaled strictly after the blob itself, so a
	// recovered record never names bytes that aren't on disk.
	Result string `json:"result,omitempty"`
	// Rules is the mined rule count for StateDone.
	Rules int `json:"rules,omitempty"`
	// Attempts counts execution sessions (boot re-admissions included;
	// the full-jitter transient retries inside a session do not bump it).
	Attempts int `json:"attempts,omitempty"`
	// Resumed reports that the last session ran no partition pass: it
	// replayed its file-backed dataset's kept partition, one built
	// earlier in this process or resumed from disk after a restart.
	Resumed bool `json:"resumed,omitempty"`

	CreatedNS  int64 `json:"created_ns"`
	StartedNS  int64 `json:"started_ns,omitempty"`
	FinishedNS int64 `json:"finished_ns,omitempty"`
}

// RunEnv is what the Manager hands a Runner besides the job itself.
type RunEnv struct {
	// Publish emits a progress event; Job/Seq/Attempt are stamped by
	// the manager. Never blocks.
	Publish func(Event)
	// OnResume records that this session ran no partition pass.
	OnResume func()
}

// Runner executes one job and returns the canonical result payload
// (the dmcrules wire format — deterministic bytes, so a resumed run is
// byte-comparable to an uninterrupted one) plus the rule count. The
// serving layer injects it; the manager owns everything around it.
type Runner func(ctx context.Context, j Job, env RunEnv) (payload []byte, nrules int, err error)

// ErrNotFound is returned for an unknown (or other-tenant) job id.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTerminal is returned by Cancel on an already-finished job.
var ErrTerminal = errors.New("jobs: job already finished")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// ErrNoResult is returned by Result for a job without a committed
// result blob.
var ErrNoResult = errors.New("jobs: no result for job")

// Options tunes a Manager. The zero value is production-safe.
type Options struct {
	// Run executes jobs; required before Start.
	Run Runner
	// Workers is the pool size; ≤ 0 means 2.
	Workers int
	// Registry receives the dmc_jobs_* metrics; nil means obs.Default.
	Registry *obs.Registry
	// FS routes journal and result-blob I/O; nil means the real
	// filesystem. Tests install a fault.Injector.
	FS fault.FS
	// Retry bounds the full-jitter retry of transient failures inside
	// one execution session. Zero value = fault defaults (3 attempts).
	Retry fault.RetryPolicy
	// Weights are the tenants' fair-share scheduling weights (missing
	// or < 1 means 1).
	Weights map[string]int
	// CompactEvery compacts the journal once it holds this many records
	// beyond the live set; ≤ 0 means 64.
	CompactEvery int
	// MaxTerminal bounds retained finished jobs: beyond it the oldest
	// are pruned (journal record and result blob) at compaction time.
	// ≤ 0 means 512.
	MaxTerminal int
	// EventBuffer is each SSE subscriber's bounded buffer, in events; a
	// subscriber that falls this far behind is dropped. ≤ 0 means 64.
	EventBuffer int
}

func (o Options) fs() fault.FS {
	if o.FS != nil {
		return o.FS
	}
	return fault.OS
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 2
}

func (o Options) compactEvery() int {
	if o.CompactEvery > 0 {
		return o.CompactEvery
	}
	return 64
}

func (o Options) maxTerminal() int {
	if o.MaxTerminal > 0 {
		return o.MaxTerminal
	}
	return 512
}

type jobMetrics struct {
	submitted   obs.Counter
	finished    *obs.CounterVec // state
	running     obs.Gauge
	queued      obs.Gauge
	resumed     obs.Counter
	requeued    obs.Counter
	dropped     obs.Counter
	compactions obs.Counter
	records     obs.Gauge
	duration    obs.Histogram
}

func newJobMetrics(reg *obs.Registry) *jobMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &jobMetrics{
		submitted: reg.Counter("dmc_jobs_submitted_total",
			"Jobs durably accepted by POST /v1/jobs."),
		finished: reg.CounterVec("dmc_jobs_finished_total",
			"Jobs reaching a terminal state.", "state"),
		running: reg.Gauge("dmc_jobs_running",
			"Jobs currently executing on the worker pool."),
		queued: reg.Gauge("dmc_jobs_queued",
			"Jobs waiting in the weighted-fair queue."),
		resumed: reg.Counter("dmc_jobs_resumed_total",
			"Job sessions that ran no partition pass: they replayed their dataset's kept partition, built earlier in the process or resumed from disk."),
		requeued: reg.Counter("dmc_jobs_requeued_total",
			"Incomplete jobs re-admitted by journal replay at boot."),
		dropped: reg.Counter("dmc_jobs_events_dropped_total",
			"SSE subscribers dropped for not draining their bounded event buffer."),
		compactions: reg.Counter("dmc_jobs_compactions_total",
			"JOBS journal compactions."),
		records: reg.Gauge("dmc_jobs_journal_records",
			"Records in the JOBS journal (compaction resets to the live count)."),
		duration: reg.Histogram("dmc_job_duration_seconds",
			"Wall time of completed job executions.", nil),
	}
}

// Manager is the durable job table plus its worker pool. Safe for
// concurrent use.
type Manager struct {
	dir  string
	opts Options
	met  *jobMetrics
	hub  *eventHub

	mu         sync.Mutex
	cond       *sync.Cond
	jobs       map[string]*Job
	queue      *FairQueue
	pending    map[string]*FairItem // queued job id → its queue ticket
	running    map[string]context.CancelFunc
	userCancel map[string]bool    // DELETE-requested cancels (vs shutdown)
	tenantEWMA map[string]float64 // per-tenant mean job cost, microseconds
	journal    fault.File
	total      int
	poisoned   bool
	closing    bool
	started    bool

	wg sync.WaitGroup
}

// Open recovers (creating if needed) the job table at dir: sweeps
// crash debris, replays the JOBS journal with torn-tail repair,
// re-admits incomplete jobs into the weighted-fair queue, and
// garbage-collects unreferenced result blobs. Workers do not run until
// Start.
func Open(dir string, opts Options) (*Manager, error) {
	m := &Manager{
		dir:        dir,
		opts:       opts,
		met:        newJobMetrics(opts.Registry),
		jobs:       make(map[string]*Job),
		queue:      NewFairQueue(opts.Weights),
		pending:    make(map[string]*FairItem),
		running:    make(map[string]context.CancelFunc),
		userCancel: make(map[string]bool),
		tenantEWMA: make(map[string]float64),
	}
	m.cond = sync.NewCond(&m.mu)
	m.hub = newEventHub(opts.EventBuffer, m.met.dropped.Inc)
	if err := os.MkdirAll(m.resultsDir(), 0o755); err != nil {
		return nil, err
	}
	// scratch/ held per-job checkpoints before jobs replayed kept partitions.
	os.RemoveAll(filepath.Join(dir, "scratch"))
	sweepTmp(dir)
	sweepTmp(m.resultsDir())

	live, total, torn, err := replayJobs(opts.fs(), m.journalPath())
	if err != nil {
		return nil, err
	}
	m.jobs, m.total = live, total
	if torn || total-len(live) >= opts.compactEvery() {
		if err := m.compactLocked(); err != nil {
			return nil, err
		}
	} else if err := m.openJournalLocked(); err != nil {
		return nil, err
	}

	// Re-admit incomplete jobs, oldest first so recovery preserves
	// rough submission order; a job the journal last saw "running" was
	// interrupted by the crash and runs again.
	incomplete := make([]*Job, 0)
	for _, j := range m.jobs {
		if !j.State.Terminal() {
			incomplete = append(incomplete, j)
		}
	}
	sort.Slice(incomplete, func(i, k int) bool { return incomplete[i].CreatedNS < incomplete[k].CreatedNS })
	for _, j := range incomplete {
		j.State = StateQueued
		m.pending[j.ID] = m.queue.Push(j.Tenant, m.costLocked(j.Tenant), j.ID)
		m.met.requeued.Inc()
	}

	m.gcResultsLocked()
	m.gauges()
	return m, nil
}

func (m *Manager) journalPath() string { return filepath.Join(m.dir, "JOBS") }
func (m *Manager) resultsDir() string  { return filepath.Join(m.dir, "results") }

// gcResultsLocked removes result blobs no live job references —
// superseded by pruning, or orphaned by a crash between blob commit
// and journal append.
func (m *Manager) gcResultsLocked() {
	refs := make(map[string]bool, len(m.jobs))
	for _, j := range m.jobs {
		if j.Result != "" {
			refs[j.Result+resultExt] = true
		}
	}
	des, err := os.ReadDir(m.resultsDir())
	if err != nil {
		return
	}
	for _, de := range des {
		if !refs[de.Name()] {
			os.Remove(filepath.Join(m.resultsDir(), de.Name()))
		}
	}
}

const resultExt = ".rules"

// Start launches the worker pool. Idempotent; Submit before Start
// queues work the pool picks up immediately.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closing {
		return
	}
	m.started = true
	for i := 0; i < m.opts.workers(); i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Close stops the pool: running jobs are interrupted (their journal
// record stays "running", so the next Open re-admits and resumes
// them), workers drain, and the journal handle closes. Safe to call
// more than once.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	for _, cancel := range m.running {
		cancel()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal != nil {
		err := m.journal.Close()
		m.journal = nil
		return err
	}
	return nil
}

// newJobID returns a fresh 128-bit random id, hex-encoded.
func newJobID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// validatePipeline admits the two rule families.
func validatePipeline(p string) error {
	switch p {
	case "imp", "sim":
		return nil
	}
	return fmt.Errorf("jobs: pipeline %q (want \"imp\" or \"sim\")", p)
}

// Submit durably accepts a job: the record is journaled (the commit
// point — a job the client was told about survives SIGKILL) and
// enqueued under its tenant's fair share. The caller validates params
// against its dataset catalog first; Submit checks only shape.
func (m *Manager) Submit(tenant string, p Params) (Job, error) {
	if p.Dataset == "" {
		return Job{}, errors.New("jobs: missing dataset")
	}
	if err := validatePipeline(p.Pipeline); err != nil {
		return Job{}, err
	}
	if p.Threshold < 1 || p.Threshold > 100 {
		return Job{}, fmt.Errorf("jobs: threshold %d outside [1,100]", p.Threshold)
	}
	id, err := newJobID()
	if err != nil {
		return Job{}, err
	}
	j := &Job{
		ID: id, Tenant: tenant, Params: p,
		State: StateQueued, CreatedNS: time.Now().UnixNano(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return Job{}, ErrClosed
	}
	if m.poisoned {
		return Job{}, ErrCorrupt
	}
	if err := m.appendJobLocked(j); err != nil {
		return Job{}, err
	}
	m.jobs[id] = j
	m.pending[id] = m.queue.Push(tenant, m.costLocked(tenant), id)
	m.met.submitted.Inc()
	m.maybeCompactLocked()
	m.gauges()
	m.cond.Signal()
	return *j, nil
}

// costLocked is the tenant's EWMA job cost in microseconds (1 when the
// tenant has no history yet — weighted round-robin until it does).
func (m *Manager) costLocked(tenant string) float64 {
	if c := m.tenantEWMA[tenant]; c > 0 {
		return c
	}
	return 1
}

// observeLocked folds one finished session's wall time into the
// tenant's cost estimate (α = 0.25, like the admission EWMA).
func (m *Manager) observeLocked(tenant string, d time.Duration) {
	us := float64(d.Microseconds())
	if us <= 0 {
		us = 1
	}
	if old := m.tenantEWMA[tenant]; old > 0 {
		m.tenantEWMA[tenant] = old + (us-old)/4
	} else {
		m.tenantEWMA[tenant] = us
	}
}

// EstimateCost returns the tenant's EWMA job duration, or 0 when the
// tenant has no history — the Retry-After seed for quota sheds.
func (m *Manager) EstimateCost(tenant string) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.tenantEWMA[tenant]) * time.Microsecond
}

// Get returns the job by id, scoped to tenant ("" skips the tenant
// check — operator tooling).
func (m *Manager) Get(tenant, id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || (tenant != "" && j.Tenant != tenant) {
		return Job{}, ErrNotFound
	}
	return *j, nil
}

// List returns tenant's jobs, newest first ("" lists every tenant).
func (m *Manager) List(tenant string) []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if tenant == "" || j.Tenant == tenant {
			out = append(out, *j)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].CreatedNS != out[k].CreatedNS {
			return out[i].CreatedNS > out[k].CreatedNS
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Active counts tenant's non-terminal jobs — the quantity tenant
// concurrency quotas bound.
func (m *Manager) Active(tenant string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.Tenant == tenant && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// Cancel stops a job: a queued job is removed from the queue and
// finalized immediately; a running job's context is cancelled and the
// run loop finalizes it. Returns the job as the caller now sees it.
func (m *Manager) Cancel(tenant, id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || (tenant != "" && j.Tenant != tenant) {
		return Job{}, ErrNotFound
	}
	if j.State.Terminal() {
		return *j, ErrTerminal
	}
	if it, queued := m.pending[id]; queued && m.queue.Remove(it) {
		delete(m.pending, id)
		if err := m.finalizeLocked(j, StateCancelled, "", "", 0); err != nil {
			return *j, err
		}
		return *j, nil
	}
	m.userCancel[id] = true
	if cancel, ok := m.running[id]; ok {
		cancel()
	}
	return *j, nil
}

// Subscribe attaches a bounded event feed for the job. A terminal job
// yields exactly its final state event and a closed channel.
func (m *Manager) Subscribe(tenant, id string) (*Subscription, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || (tenant != "" && j.Tenant != tenant) {
		return nil, ErrNotFound
	}
	ev := stateEvent(j)
	return m.hub.subscribe(id, &ev, j.State.Terminal()), nil
}

func stateEvent(j *Job) Event {
	return Event{
		Job: j.ID, Type: EventState, State: j.State,
		Error: j.Error, Result: j.Result, Rules: j.Rules, Attempt: j.Attempts,
	}
}

// Result returns the committed result payload of a done job, verifying
// the bytes still match their content address.
func (m *Manager) Result(tenant, id string) ([]byte, error) {
	j, err := m.Get(tenant, id)
	if err != nil {
		return nil, err
	}
	if j.State != StateDone || j.Result == "" {
		return nil, fmt.Errorf("%w %s (state %s)", ErrNoResult, id, j.State)
	}
	data, err := os.ReadFile(filepath.Join(m.resultsDir(), j.Result+resultExt))
	if err != nil {
		return nil, err
	}
	if store.BlobHash(data) != j.Result {
		return nil, fmt.Errorf("jobs: result blob for %s fails its content address", id)
	}
	return data, nil
}

// worker is one pool goroutine: pop the fair queue, execute, repeat.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var it *FairItem
		for {
			if m.closing {
				m.mu.Unlock()
				return
			}
			if it = m.queue.Pop(); it != nil {
				break
			}
			m.cond.Wait()
		}
		id := it.Value.(string)
		delete(m.pending, id)
		j, ok := m.jobs[id]
		if !ok || j.State != StateQueued {
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		m.running[id] = cancel
		j.State = StateRunning
		j.StartedNS = time.Now().UnixNano()
		j.Attempts++
		// The running transition is journaled so a SIGKILL replays the
		// job as incomplete; failure to journal means failure to run.
		if err := m.appendJobLocked(j); err != nil {
			delete(m.running, id)
			cancel()
			j.State = StateQueued
			m.mu.Unlock()
			continue
		}
		attempt := j.Attempts
		jcopy := *j
		m.publishLocked(Event{Job: id, Type: EventState, State: StateRunning, Attempt: attempt}, false)
		m.gauges()
		m.mu.Unlock()

		m.execute(ctx, cancel, jcopy)
	}
}

// execute runs one session of job j, already marked running.
func (m *Manager) execute(ctx context.Context, cancel context.CancelFunc, j Job) {
	defer cancel()
	start := time.Now()
	resumed := false
	env := RunEnv{
		Publish: func(ev Event) {
			ev.Job, ev.Attempt = j.ID, j.Attempts
			m.mu.Lock()
			m.publishLocked(ev, false)
			m.mu.Unlock()
		},
		OnResume: func() {
			resumed = true
			m.met.resumed.Inc()
		},
	}
	var payload []byte
	var nrules int
	err := fault.Do(ctx, m.opts.Retry, func() error {
		p, n, rerr := m.opts.Run(ctx, j, env)
		payload, nrules = p, n
		return rerr
	})

	var hash string
	if err == nil {
		hash = store.BlobHash(payload)
		// Blob before journal record: the "done" append is the commit
		// point, and it must never name bytes that aren't on disk.
		err = store.CommitBlob(m.opts.fs(), filepath.Join(m.resultsDir(), hash+resultExt), payload)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.running, j.ID)
	live, ok := m.jobs[j.ID]
	if !ok {
		return
	}
	live.Resumed = resumed
	switch {
	case err == nil:
		m.observeLocked(j.Tenant, time.Since(start))
		m.met.duration.Observe(time.Since(start).Seconds())
		_ = m.finalizeLocked(live, StateDone, "", hash, nrules)
	case errors.Is(err, context.Canceled) && !m.userCancel[j.ID]:
		// Shutdown interruption, not a client cancel: leave the journal
		// saying "running" so the next Open re-admits and resumes. If
		// the pool is still up (spurious cancel), requeue right away.
		live.State = StateQueued
		if !m.closing {
			m.pending[j.ID] = m.queue.Push(j.Tenant, m.costLocked(j.Tenant), j.ID)
			m.cond.Signal()
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		_ = m.finalizeLocked(live, StateCancelled, "", "", 0)
	default:
		m.observeLocked(j.Tenant, time.Since(start))
		_ = m.finalizeLocked(live, StateFailed, err.Error(), "", 0)
	}
	delete(m.userCancel, j.ID)
	m.gauges()
}

// finalizeLocked journals a terminal transition (the commit point),
// then publishes it and updates the counters. The journal write failing leaves the job incomplete —
// re-admitted at the next boot, which is the safe direction.
func (m *Manager) finalizeLocked(j *Job, st State, errMsg, result string, nrules int) error {
	cp := *j
	cp.State, cp.Error, cp.Result, cp.Rules = st, errMsg, result, nrules
	cp.FinishedNS = time.Now().UnixNano()
	if err := m.appendJobLocked(&cp); err != nil {
		return err
	}
	*j = cp
	m.met.finished.With(string(st)).Inc()
	m.publishLocked(stateEvent(j), true)
	m.maybeCompactLocked()
	m.gauges()
	return nil
}

// publishLocked emits ev under m.mu, which is what makes Subscribe's
// terminal-state check race-free against completion.
func (m *Manager) publishLocked(ev Event, terminal bool) {
	m.hub.publish(ev, terminal)
}

// maybeCompactLocked prunes over-retained terminal jobs and compacts
// the journal past the churn threshold. Both are optimizations whose
// failure must not fail the committed mutation that triggered them.
func (m *Manager) maybeCompactLocked() {
	var terminal []*Job
	for _, j := range m.jobs {
		if j.State.Terminal() {
			terminal = append(terminal, j)
		}
	}
	if over := len(terminal) - m.opts.maxTerminal(); over > 0 {
		sort.Slice(terminal, func(i, k int) bool { return terminal[i].FinishedNS < terminal[k].FinishedNS })
		for _, j := range terminal[:over] {
			delete(m.jobs, j.ID)
		}
		if m.compactLocked() == nil {
			m.gcResultsLocked()
		}
		return
	}
	if m.total-len(m.jobs) >= m.opts.compactEvery() {
		if m.compactLocked() == nil {
			m.gcResultsLocked()
		}
	}
}

func (m *Manager) gauges() {
	m.met.records.Set(int64(m.total))
	m.met.queued.Set(int64(len(m.pending)))
	m.met.running.Set(int64(len(m.running)))
}

// sweepTmp removes *.tmp debris directly under dir.
func sweepTmp(dir string) {
	stale, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return
	}
	for _, f := range stale {
		os.Remove(f)
	}
}

// ValidTenant reports whether name is usable as a tenant namespace:
// same shape as dataset names (leading alphanumeric, then
// alphanumerics/dot/underscore/dash, max 64) — it appears in metric
// labels and directory-adjacent contexts, so path tricks are out.
func ValidTenant(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
		case i > 0 && (r == '.' || r == '_' || r == '-'):
		default:
			return false
		}
	}
	return !strings.Contains(name, "..")
}
