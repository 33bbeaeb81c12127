package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dmc/internal/fault"
	"dmc/internal/store"
)

// nopRunner satisfies Options.Run for tests that never execute jobs
// (Start is not called).
func nopRunner(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
	return []byte("dmcrules imp 1 0\n"), 0, nil
}

func waitState(t *testing.T, m *Manager, tenant, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(tenant, id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

func TestSubmitValidation(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	bad := []Params{
		{Pipeline: "imp", Threshold: 90},                 // no dataset
		{Dataset: "d", Pipeline: "bogus", Threshold: 90}, // bad pipeline
		{Dataset: "d", Pipeline: "imp", Threshold: 0},    // threshold low
		{Dataset: "d", Pipeline: "sim", Threshold: 101},  // threshold high
	}
	for i, p := range bad {
		if _, err := m.Submit("t", p); err == nil {
			t.Fatalf("case %d: bad params accepted: %+v", i, p)
		}
	}
	if _, err := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90}); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
}

func TestJobRunsToDone(t *testing.T) {
	payload := []byte("dmcrules imp 1 2\n0 1 5 4\n1 0 5 5\n")
	dir := t.TempDir()
	m, err := Open(dir, Options{
		Run: func(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
			env.Publish(Event{Type: EventPhase, Phase: "count", Pipeline: j.Params.Pipeline})
			return payload, 2, nil
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	m.Start()

	j, err := m.Submit("acme", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := waitState(t, m, "acme", j.ID, StateDone)
	if done.Rules != 2 || done.Result == "" || done.Attempts != 1 {
		t.Fatalf("done job = %+v", done)
	}
	if done.Result != store.BlobHash(payload) {
		t.Fatalf("result hash %s, want %s", done.Result, store.BlobHash(payload))
	}
	got, err := m.Result("acme", j.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("result payload %q", got)
	}
	// A job keeps no scratch of its own: its mine replays the dataset's
	// kept partition.
	if _, err := os.Stat(filepath.Join(dir, "scratch")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the job directory holds a scratch tree: %v", err)
	}
}

func TestResultVerifiesContentAddress(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	m.Start()
	j, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	done := waitState(t, m, "t", j.ID, StateDone)
	// Flip a byte in the blob; Result must refuse to serve it.
	path := filepath.Join(m.resultsDir(), done.Result+resultExt)
	data, _ := os.ReadFile(path)
	data[0] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Result("t", j.ID); err == nil {
		t.Fatal("corrupted result served")
	}
}

func TestJobFailure(t *testing.T) {
	m, err := Open(t.TempDir(), Options{
		Retry: fault.RetryPolicy{MaxAttempts: 1},
		Run: func(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
			return nil, 0, errors.New("boom")
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	m.Start()
	j, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "sim", Threshold: 80})
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := m.Get("t", j.ID)
		if got.State == StateFailed {
			if got.Error != "boom" {
				t.Fatalf("error %q", got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestTransientFailureRetriedWithinSession(t *testing.T) {
	var calls atomic.Int32
	m, err := Open(t.TempDir(), Options{
		Retry: fault.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		Run: func(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
			if calls.Add(1) < 3 {
				return nil, 0, fault.MarkTransient(errors.New("flaky io"))
			}
			return []byte("dmcrules imp 1 0\n"), 0, nil
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	m.Start()
	j, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	done := waitState(t, m, "t", j.ID, StateDone)
	if calls.Load() != 3 {
		t.Fatalf("runner called %d times, want 3", calls.Load())
	}
	// In-session retries are one attempt (one journaled session).
	if done.Attempts != 1 {
		t.Fatalf("attempts=%d, want 1", done.Attempts)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	// Pool not started: the job stays queued.
	j, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	got, err := m.Cancel("t", j.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancel queued: %+v err=%v", got, err)
	}
	if _, err := m.Cancel("t", j.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: %v", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	m, err := Open(t.TempDir(), Options{
		Run: func(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
			close(started)
			<-ctx.Done()
			return nil, 0, ctx.Err()
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	m.Start()
	j, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	<-started
	if _, err := m.Cancel("t", j.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := m.Get("t", j.ID)
		if got.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestTenantScoping(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	j, _ := m.Submit("acme", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	if _, err := m.Get("other", j.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant get: %v", err)
	}
	if _, err := m.Cancel("other", j.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant cancel: %v", err)
	}
	if _, err := m.Subscribe("other", j.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant subscribe: %v", err)
	}
	if got := m.List("acme"); len(got) != 1 {
		t.Fatalf("acme list: %v", got)
	}
	if got := m.List("other"); len(got) != 0 {
		t.Fatalf("other list: %v", got)
	}
	if got := m.List(""); len(got) != 1 {
		t.Fatalf("operator list: %v", got)
	}
	if m.Active("acme") != 1 || m.Active("other") != 0 {
		t.Fatal("Active miscounts")
	}
}

// TestRestartReadmitsIncompleteJobs is the durability core: jobs the
// journal last saw queued or running come back queued after a reopen
// and then execute.
func TestRestartReadmitsIncompleteJobs(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	m, err := Open(dir, Options{
		Run: func(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
			select {
			case <-block:
				return []byte("dmcrules imp 1 0\n"), 0, nil
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
		},
		Workers: 1,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m.Start()
	jRun, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	waitState(t, m, "t", jRun.ID, StateRunning)
	jQueued, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "sim", Threshold: 75})
	// Close interrupts the running job; its journal record still says
	// "running" — the crash-equivalent state.
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2, err := Open(dir, Options{
		Run: func(ctx context.Context, j Job, env RunEnv) ([]byte, int, error) {
			return []byte("dmcrules imp 1 0\n"), 0, nil
		},
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	for _, id := range []string{jRun.ID, jQueued.ID} {
		if got, _ := m2.Get("t", id); got.State != StateQueued {
			t.Fatalf("job %s replayed as %s, want queued", id, got.State)
		}
	}
	m2.Start()
	done := waitState(t, m2, "t", jRun.ID, StateDone)
	if done.Attempts != 2 {
		t.Fatalf("interrupted job attempts=%d, want 2", done.Attempts)
	}
	waitState(t, m2, "t", jQueued.ID, StateDone)
}

// TestOpenRemovesJobScratch is the upgrade from per-job checkpoints:
// a job directory whose scratch/ holds checkpoints, as an older server
// wrote them for an incomplete job, a finished one and an unknown id,
// loses the whole tree at Open, and the incomplete job still runs to
// done.
func TestOpenRemovesJobScratch(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m.Start()
	jDone, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	waitState(t, m, "t", jDone.ID, StateDone)
	m.Close()

	// Reopen without workers so the incomplete job stays queued.
	m, err = Open(dir, Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	jLive, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	m.Close()

	for _, id := range []string{jDone.ID, "deadbeefdeadbeefdeadbeefdeadbeef", jLive.ID} {
		d := filepath.Join(dir, "scratch", id)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"MANIFEST.json", "bucket-00.rows", "bucket-01.rows.tmp"} {
			if err := os.WriteFile(filepath.Join(d, name), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	m, err = Open(dir, Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("reopen over a scratch tree: %v", err)
	}
	defer m.Close()
	if _, err := os.Stat(filepath.Join(dir, "scratch")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("scratch/ survives Open: %v", err)
	}
	m.Start()
	if j := waitState(t, m, "t", jLive.ID, StateDone); j.Attempts != 1 || j.Resumed {
		t.Fatalf("the incomplete job ended %+v, want one unresumed session", j)
	}
	if _, err := m.Result("t", jLive.ID); err != nil {
		t.Fatalf("result of the incomplete job: %v", err)
	}
}

// TestResultBlobGC: a result blob no live job references (e.g. written
// just before a crash whose journal append never landed) is collected
// at boot.
func TestResultBlobGC(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m.Start()
	j, _ := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
	waitState(t, m, "t", j.ID, StateDone)
	m.Close()

	orphan := filepath.Join(dir, "results", "sha256-0123456789abcdef0123456789abcdef"+resultExt)
	if err := os.WriteFile(orphan, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = Open(dir, Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan result blob not collected")
	}
	if _, err := m.Result("t", j.ID); err != nil {
		t.Fatalf("referenced result collected: %v", err)
	}
}

// TestTerminalPruning: retained finished jobs are bounded; the oldest
// fall off and their blobs are collected.
func TestTerminalPruning(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner, MaxTerminal: 3, CompactEvery: 1 << 20})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	m.Start()
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitState(t, m, "t", j.ID, StateDone)
		ids = append(ids, j.ID)
	}
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n > 3 {
		t.Fatalf("%d terminal jobs retained, want ≤ 3", n)
	}
	if _, err := m.Get("t", ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job survived pruning: %v", err)
	}
	if _, err := m.Get("t", ids[5]); err != nil {
		t.Fatalf("newest job pruned: %v", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m.Close()
	if _, err := m.Submit("t", Params{Dataset: "d", Pipeline: "imp", Threshold: 90}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestValidTenant(t *testing.T) {
	good := []string{"default", "acme", "team-a", "t.1", "A_b-c.d", "x"}
	bad := []string{"", "-lead", ".dot", "_u", "a/b", "a b", "..", "a..b",
		"waytoolongwaytoolongwaytoolongwaytoolongwaytoolongwaytoolongwaytoolong"}
	for _, n := range good {
		if !ValidTenant(n) {
			t.Errorf("ValidTenant(%q) = false", n)
		}
	}
	for _, n := range bad {
		if ValidTenant(n) {
			t.Errorf("ValidTenant(%q) = true", n)
		}
	}
}

func TestEstimateCostEWMA(t *testing.T) {
	m, err := Open(t.TempDir(), Options{Run: nopRunner})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer m.Close()
	if m.EstimateCost("t") != 0 {
		t.Fatal("fresh tenant has a cost estimate")
	}
	m.mu.Lock()
	m.observeLocked("t", 100*time.Millisecond)
	m.observeLocked("t", 200*time.Millisecond)
	m.mu.Unlock()
	got := m.EstimateCost("t")
	// 100ms then fold in 200ms at α=0.25 → 125ms.
	if got < 120*time.Millisecond || got > 130*time.Millisecond {
		t.Fatalf("EWMA estimate %v, want ≈125ms", got)
	}
}
