package server

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

// TestAdmissionQueueFull: with the slot held and the queue at capacity,
// the next arrival is shed immediately — 429, Retry-After, and
// dmc_shed_total{reason="queue_full"} — instead of joining a convoy it
// would only deepen.
func TestAdmissionQueueFull(t *testing.T) {
	s, ts := slowServer(t, Config{MaxConcurrentMines: 1, MaxQueueDepth: 1}, 400*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one slot holder + one queued waiter
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/datasets/slow/implications")
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(60 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/slow/implications")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	if got := s.metrics.shed.With(shedQueueFull).Value(); got < 1 {
		t.Fatalf("dmc_shed_total{queue_full} = %d, want >= 1", got)
	}
}

// TestAdmissionQueueBoundReserveThenCheck pins the bound's atomicity:
// the queue slot is reserved before the bound is checked, so racing
// arrivals cannot overshoot MaxQueueDepth, and a shed arrival rolls its
// reservation back.
func TestAdmissionQueueBoundReserveThenCheck(t *testing.T) {
	a := newAdmission(1, 1, nil)
	holder, shed := a.acquire(context.Background(), "t") // slot taken
	if shed != nil {
		t.Fatalf("idle acquire shed: %+v", shed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *shedInfo, 1)
	go func() {
		_, shed := a.acquire(ctx, "t")
		done <- shed
	}()
	for i := 0; a.queueDepth() != 1; i++ {
		if i > 5000 {
			t.Fatal("waiter never joined the queue")
		}
		time.Sleep(time.Millisecond)
	}
	_, shed = a.acquire(context.Background(), "t")
	if shed == nil || shed.reason != shedQueueFull {
		t.Fatalf("arrival over the bound: shed = %+v, want queue_full", shed)
	}
	if got := a.queueDepth(); got != 1 {
		t.Fatalf("queue depth after shed = %d, want 1 (bound held)", got)
	}
	cancel()
	if shed := <-done; shed == nil || shed.reason != shedDeadline {
		t.Fatalf("queued waiter after cancel: shed = %+v, want deadline", shed)
	}
	if got := a.queueDepth(); got != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", got)
	}
	holder()
}

// TestAdmissionDeadlineShed exercises the estimator directly: with the
// slot taken and the EWMA saying mines run ~10s, a request that has
// only 50ms left is refused up front with a Retry-After telling the
// client when the backlog should have cleared.
func TestAdmissionDeadlineShed(t *testing.T) {
	a := newAdmission(1, 4, nil)
	holder, shed := a.acquire(context.Background(), "t") // slot taken
	if shed != nil {
		t.Fatalf("idle acquire shed: %+v", shed)
	}
	a.ewmaUS.Store(10 * 1000 * 1000) // mines take ~10s
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	release, shed := a.acquire(ctx, "t")
	if release != nil || shed == nil {
		t.Fatal("hopeless deadline was admitted")
	}
	if shed.reason != shedDeadline || shed.status != http.StatusTooManyRequests {
		t.Fatalf("shed = %+v", shed)
	}
	if shed.retryAfter < 10*time.Second {
		t.Fatalf("Retry-After %v does not reflect the 10s backlog estimate", shed.retryAfter)
	}
	// With no deadline, the same request queues and gets the slot when
	// it frees.
	go holder()
	release, shed = a.acquire(context.Background(), "t")
	if shed != nil {
		t.Fatalf("deadline-free request shed: %+v", shed)
	}
	release()
}

// TestAdmissionEWMAObserve: the estimator converges toward observed
// durations and a single outlier moves it by only a quarter step.
func TestAdmissionEWMAObserve(t *testing.T) {
	a := newAdmission(2, 0, nil)
	if a.maxQueue != 8 {
		t.Fatalf("default maxQueue = %d, want 4x slots", a.maxQueue)
	}
	if got := a.estWait(0); got != 0 {
		t.Fatalf("cold estimator produced %v, want 0 (never pre-shed unlearned)", got)
	}
	a.observe(100 * time.Millisecond)
	if got := a.ewmaUS.Load(); got != 100_000 {
		t.Fatalf("first observation = %dus, want exactly 100000", got)
	}
	a.observe(500 * time.Millisecond)
	if got := a.ewmaUS.Load(); got != 200_000 {
		t.Fatalf("after outlier = %dus, want 200000 (quarter step)", got)
	}
	// Two slots: a request with one waiter ahead waits ~2 turnovers / 2.
	if got := a.estWait(1); got != 200*time.Millisecond {
		t.Fatalf("estWait(1) = %v, want 200ms", got)
	}
}

// TestReadyzLifecycle: /v1/readyz follows SetReady while /v1/healthz
// stays pure liveness and never flips.
func TestReadyzLifecycle(t *testing.T) {
	s := NewWith(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var body map[string]string
	getJSON(t, ts.URL+"/v1/readyz", http.StatusOK, &body)
	if body["status"] != "ready" {
		t.Fatalf("readyz = %v", body)
	}
	s.SetReady(false)
	getJSON(t, ts.URL+"/v1/readyz", http.StatusServiceUnavailable, &body)
	if body["status"] != "loading" {
		t.Fatalf("readyz while loading = %v", body)
	}
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, nil) // liveness unaffected
	s.SetReady(true)
	getJSON(t, ts.URL+"/v1/readyz", http.StatusOK, nil)
	if !s.Ready() {
		t.Fatal("Ready() = false after SetReady(true)")
	}
}

// TestDrainFlipsReadyzAndShedsMines: once shutdown is requested, the
// DrainDelay window keeps the listener serving — readyz 503 so load
// balancers drift away, mining requests shed with
// dmc_shed_total{reason="draining"} — before the listener closes.
func TestDrainFlipsReadyzAndShedsMines(t *testing.T) {
	s, _ := slowServer(t, Config{DrainDelay: 600 * time.Millisecond, ShutdownGrace: 5 * time.Second}, 10*time.Millisecond)
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	getJSON(t, base+"/v1/readyz", http.StatusOK, nil)
	cancel()
	time.Sleep(100 * time.Millisecond) // inside the drain window

	var body map[string]string
	getJSON(t, base+"/v1/readyz", http.StatusServiceUnavailable, &body)
	if body["status"] != "draining" {
		t.Fatalf("readyz during drain = %v", body)
	}
	getJSON(t, base+"/v1/healthz", http.StatusOK, nil)

	resp, err := http.Get(base + "/v1/datasets/slow/implications")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mine during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining shed has no Retry-After")
	}
	if got := s.metrics.shed.With(shedDraining).Value(); got < 1 {
		t.Fatalf("dmc_shed_total{draining} = %d, want >= 1", got)
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the drain window")
	}
}

// TestBrownoutDegradesToStream: when the resident-mine ledger is
// already over Config.BrownoutBytes, a new resident mine is not
// rejected — it runs through the out-of-core engine from the start,
// counted on dmc_mines_degraded_total, and still returns 200.
func TestBrownoutDegradesToStream(t *testing.T) {
	s := NewWith(Config{BrownoutBytes: 1 << 10})
	m, err := matrix.ReadBaskets(strings.NewReader(
		"bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("baskets", m)
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		t.Error("resident pipeline ran during brownout")
		return nil, core.Stats{}, nil
	}
	// Another large resident mine is "running": the ledger is over the
	// ceiling, so this request must brown out.
	s.resident.Store(1 << 20)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var resp MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=100", http.StatusOK, &resp)
	if resp.Total == 0 {
		t.Fatal("browned-out mine returned no rules")
	}
	if got := s.metrics.degraded.Value(); got < 1 {
		t.Fatalf("dmc_mines_degraded_total = %d, want >= 1", got)
	}

	// Ledger back under the ceiling: the resident pipeline serves again.
	s.resident.Store(0)
	s.imps.resident = func(p *core.Prepared, th core.Threshold, o core.Options, w int) ([]rules.Implication, core.Stats, error) {
		rs, st := p.Implications(th, o, w)
		return rs, st, nil
	}
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=100", http.StatusOK, &resp)
	if v := s.resident.Load(); v != 0 {
		t.Fatalf("resident ledger leaked: %d bytes still admitted", v)
	}
}

// TestBrownoutServesFromMemo: a mine the dataset's memo answers whole
// scans nothing, so brownout does not degrade it. With the ledger over
// the ceiling, mines at 100% and at thresholds the kept <100% rules
// cover reply byte-identically to a resident server, the resident
// engine does not run (so no idle slot is borrowed), and
// dmc_mines_degraded_total does not move.
func TestBrownoutServesFromMemo(t *testing.T) {
	body := memoBaskets(4)
	s := NewWith(Config{BrownoutBytes: 1 << 10, MaxConcurrentMines: 2, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	doPut(t, ts.URL, "d", body)
	// An idle server admits any first mine: these fill the memo.
	for _, q := range []string{"implications?threshold=60", "similarities?threshold=60"} {
		mineBody(t, ts.URL, "d", q)
	}
	ran := recordResident(s)
	s.resident.Store(1 << 20)
	for _, q := range []string{
		"implications?threshold=100", "implications?threshold=75", "implications?threshold=60",
		"similarities?threshold=100", "similarities?threshold=85",
	} {
		if got, want := mineBody(t, ts.URL, "d", q), freshMine(t, body, q); !bytes.Equal(got, want) {
			t.Fatalf("%s under brownout: reply differs from a resident server's\n got: %.400s\nwant: %.400s", q, got, want)
		}
	}
	if n := s.metrics.degraded.Value(); n != 0 {
		t.Fatalf("dmc_mines_degraded_total = %d after memo-served mines, want 0", n)
	}
	if len(ran.got) != 0 {
		t.Fatalf("the resident engine ran %d times for memo-served mines", len(ran.got))
	}
	if v := s.resident.Load(); v != 1<<20 {
		t.Fatalf("memo-served mines moved the ledger to %d bytes", v)
	}
}

// TestBrownoutAlwaysAdmitsFirstMine: an idle server admits a resident
// mine even when its footprint alone exceeds the ceiling — brownout
// sheds concurrent load, it must not make a lone big mine impossible.
func TestBrownoutAlwaysAdmitsFirstMine(t *testing.T) {
	s := NewWith(Config{BrownoutBytes: 1})
	release, brownout := s.admitResident(1 << 30)
	if brownout {
		t.Fatal("idle server browned out its first resident mine")
	}
	// But a second concurrent mine does brown out.
	if _, second := s.admitResident(1); !second {
		t.Fatal("ledger over ceiling admitted a second mine")
	}
	release()
	if v := s.resident.Load(); v != 0 {
		t.Fatalf("ledger = %d after release, want 0", v)
	}
}

// TestStoreScratchRoutesSpills is in store_integration_test.go; here we
// pin the fallback: with no store the degrade rung spills under the OS
// temp dir (empty TmpDir), re-mines the spilled file, and still cleans
// up after itself.
func TestSpillResidentFallback(t *testing.T) {
	m, err := matrix.ReadBaskets(strings.NewReader("a b\na b\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if dir := s.scratchDir(); dir != "" {
		t.Fatalf("scratchDir without a store = %q, want the OS temp dir", dir)
	}
	var spilled string
	_, _, err = stream.MineResident(m, s.scratchDir(), func() ([]rules.Implication, core.Stats, error) {
		return nil, core.Stats{}, &core.BudgetError{Bytes: 2, Budget: 1}
	}, func(path string) ([]rules.Implication, core.Stats, error) {
		spilled = path
		if _, err := matrix.Load(path); err != nil {
			t.Fatalf("spilled matrix unreadable: %v", err)
		}
		return nil, core.Stats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel, err := filepath.Rel(os.TempDir(), spilled); err != nil || strings.HasPrefix(rel, "..") {
		t.Fatalf("spill %q is not under the OS temp dir %q", spilled, os.TempDir())
	}
	if _, err := matrix.Load(spilled); err == nil {
		t.Fatal("cleanup left the spill file behind")
	}
}
