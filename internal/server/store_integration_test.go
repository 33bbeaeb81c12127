package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
	"dmc/internal/stream"
)

func mustParseBaskets(t *testing.T, text string) *matrix.Matrix {
	t.Helper()
	m, err := matrix.ReadBaskets(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openTestStore(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestPutPersistsAcrossRestart: a dataset uploaded to a store-backed
// server survives a full restart — new store handle, new server,
// LoadStore — and serves identical mines from the recovered blob.
func TestPutPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, store.Options{})
	s := NewWith(Config{Store: st})
	ts := httptest.NewServer(s.Handler())

	var inf DatasetInfo
	resp := doPut(t, ts.URL, "groceries", "bread butter jam\nbread butter\nbread butter coffee\n")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d, want 201", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/datasets/groceries", http.StatusOK, &inf)
	if !inf.Durable {
		t.Fatalf("store-backed upload not marked durable: %+v", inf)
	}
	var before MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/groceries/implications?threshold=60", http.StatusOK, &before)
	if before.Total == 0 {
		t.Fatal("pre-restart mine found no rules; the identity check below is vacuous")
	}
	ts.Close()
	st.Close()

	// "Restart": fresh store over the same directory, fresh server.
	st2 := openTestStore(t, dir, store.Options{})
	s2 := NewWith(Config{Store: st2})
	s2.SetReady(false)
	if err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s2.SetReady(true)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	getJSON(t, ts2.URL+"/v1/datasets/groceries", http.StatusOK, &inf)
	if !inf.Durable || inf.Rows != 3 || !inf.Labeled {
		t.Fatalf("recovered dataset info = %+v", inf)
	}
	var after MineResponse[ImplicationWire]
	getJSON(t, ts2.URL+"/v1/datasets/groceries/implications?threshold=60", http.StatusOK, &after)
	if after.Total != before.Total {
		t.Fatalf("mine over recovered dataset: %d rules, want %d", after.Total, before.Total)
	}
	// Labels survived the blob round-trip: rules name real columns.
	for _, rule := range after.Rules {
		if strings.HasPrefix(rule.From, "c") && rule.From != "coffee" {
			t.Fatalf("recovered rule lost its label: %+v", rule)
		}
	}
}

// TestLoadStoreBillsRecoveredBytes: datasets recovered from the store
// bill their stored bytes to the default tenant, resident and streamed
// alike, so the dmc_tenant_bytes gauge reads as before the restart and
// TenantQuota.MaxBytes still refuses a PUT past the quota.
func TestLoadStoreBillsRecoveredBytes(t *testing.T) {
	const body = "bread butter jam\nbread butter\nbread butter coffee\n"
	m := mustParseBaskets(t, body)
	est := core.Footprint(m.NumOnes(), m.NumCols())
	for _, streamMin := range []int64{0, 1} {
		dir := t.TempDir()
		st := openTestStore(t, dir, store.Options{})
		s := NewWith(Config{Store: st, StreamMinBytes: streamMin, Registry: obs.NewRegistry()})
		ts := httptest.NewServer(s.Handler())
		for _, name := range []string{"a", "b"} {
			if resp := doPut(t, ts.URL, name, body); resp.StatusCode != http.StatusCreated {
				t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
			}
		}
		n, used := s.tenantUsage(defaultTenant)
		gauge := s.metrics.tenantBytes.With(defaultTenant).Value()
		if n != 2 || used <= 0 || gauge != used {
			t.Fatalf("stream-min %d, before restart: %d datasets, %d bytes, gauge %d", streamMin, n, used, gauge)
		}
		ts.Close()
		st.Close()

		// Restart with a quota the recovered bytes leave no room in: one
		// more dataset fits only if they bill nothing.
		st2 := openTestStore(t, dir, store.Options{})
		s2 := NewWith(Config{Store: st2, StreamMinBytes: streamMin, Registry: obs.NewRegistry(),
			TenantQuota: TenantQuota{MaxBytes: used + est - 1}})
		if err := s2.LoadStore(); err != nil {
			t.Fatal(err)
		}
		if n2, used2 := s2.tenantUsage(defaultTenant); n2 != n || used2 != used {
			t.Fatalf("stream-min %d, after restart: %d datasets, %d bytes; want %d, %d", streamMin, n2, used2, n, used)
		}
		if g := s2.metrics.tenantBytes.With(defaultTenant).Value(); g != gauge {
			t.Fatalf("stream-min %d: dmc_tenant_bytes = %d after restart, want %d", streamMin, g, gauge)
		}
		ts2 := httptest.NewServer(s2.Handler())
		if resp := doPut(t, ts2.URL, "c", body); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("stream-min %d: PUT past the byte quota: status %d, want 429", streamMin, resp.StatusCode)
		}
		ts2.Close()
	}
}

// TestLoadStoreStreamsBigBlobs: catalog entries at or above
// StreamMinBytes come back file-backed (streamed from the blob), not
// resident.
func TestLoadStoreStreamsBigBlobs(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, store.Options{})
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("alpha beta gamma delta\n")
	}
	s := NewWith(Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	if resp := doPut(t, ts.URL, "big", sb.String()); resp.StatusCode != http.StatusCreated {
		t.Fatal("PUT big failed")
	}
	if resp := doPut(t, ts.URL, "small", "x y\nx y\n"); resp.StatusCode != http.StatusCreated {
		t.Fatal("PUT small failed")
	}
	ts.Close()
	st.Close()

	st2 := openTestStore(t, dir, store.Options{})
	e, ok := st2.Get("big")
	if !ok {
		t.Fatal("big lost")
	}
	s2 := NewWith(Config{Store: st2, StreamMinBytes: e.Size}) // big streams, small loads
	if err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	var big, small DatasetInfo // separate vars: omitempty fields would leak across a reused decode target
	getJSON(t, ts2.URL+"/v1/datasets/big", http.StatusOK, &big)
	if !big.Streamed || !big.Durable {
		t.Fatalf("big = %+v, want streamed+durable", big)
	}
	getJSON(t, ts2.URL+"/v1/datasets/small", http.StatusOK, &small)
	if small.Streamed || !small.Durable || !small.Labeled {
		t.Fatalf("small = %+v, want resident+durable", small)
	}
	// The streamed dataset still mines (through the out-of-core engine).
	var mr MineResponse[ImplicationWire]
	getJSON(t, ts2.URL+"/v1/datasets/big/implications?threshold=90", http.StatusOK, &mr)
	if mr.Total == 0 {
		t.Fatal("streamed recovered dataset mined no rules")
	}
}

// TestPutStreamsBigBlobs: a store-backed upload at or above
// StreamMinBytes is registered file-backed from its committed blob at
// PUT time — the same routing LoadStore applies at boot — instead of
// sitting resident (an OOM risk) until the next restart re-routes it.
func TestPutStreamsBigBlobs(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, store.Options{})
	s := NewWith(Config{Store: st, StreamMinBytes: 1}) // everything streams
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp := doPut(t, ts.URL, "big", "alpha beta\nalpha beta\nalpha gamma\n"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d, want 201", resp.StatusCode)
	}
	var inf DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/big", http.StatusOK, &inf)
	if !inf.Streamed || !inf.Durable {
		t.Fatalf("PUT-time info = %+v, want streamed+durable", inf)
	}
	d, ok := s.get("big")
	if !ok || d.m != nil || d.path == "" {
		t.Fatal("upload at StreamMinBytes was registered resident, want file-backed")
	}
	// The file-backed upload mines through the out-of-core engine.
	var mr MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/big/implications?threshold=60", http.StatusOK, &mr)
	if mr.Total == 0 {
		t.Fatal("streamed upload mined no rules")
	}
}

// TestStreamedPutPublishesOwned: a PUT routed file-backed publishes a
// dataset whose owner, content address and byte count are already set.
// Readers take those fields without the lock, so the default tenant
// must never glimpse another tenant's upload under the same name, and
// the race detector must see no write to a published dataset.
func TestStreamedPutPublishesOwned(t *testing.T) {
	st := openTestStore(t, t.TempDir(), store.Options{})
	s := NewWith(Config{Store: st, StreamMinBytes: 1, Registry: obs.NewRegistry()})
	h := s.Handler()
	var foreign, partial atomic.Int64
	stop, polled := make(chan struct{}), make(chan struct{})
	stopPolling := sync.OnceFunc(func() { close(stop); <-polled })
	defer stopPolling()
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := s.getFor(defaultTenant, "shared"); ok {
				foreign.Add(1)
			}
			if d, ok := s.getFor("acme", "shared"); ok && (!d.info.Durable || d.hash == "" || d.bytes == 0) {
				partial.Add(1)
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 60; i++ {
		req := httptest.NewRequest(http.MethodPut, "/v1/datasets/shared", strings.NewReader(basketBody))
		req.Header.Set(tenantHeader, "acme")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %d: status %d\n%s", i, rec.Code, rec.Body)
		}
	}
	stopPolling()
	if n := foreign.Load(); n != 0 {
		t.Fatalf("the default tenant saw acme's dataset %d times", n)
	}
	if n := partial.Load(); n != 0 {
		t.Fatalf("acme's dataset was visible %d times before its owner fields were set", n)
	}
	if d, ok := s.getFor("acme", "shared"); !ok || d.m != nil || !d.info.Durable || d.hash == "" || d.bytes == 0 {
		t.Fatalf("final registration = %+v, want acme's durable file-backed dataset", d)
	}
}

// TestBudgetErrorSurvivesFailedSpill: when a budget-overflow degrade
// cannot even spill the matrix, the surfaced error must still carry the
// triggering *core.BudgetError (so the client learns the mine
// overflowed its budget), joined with the spill failure.
func TestBudgetErrorSurvivesFailedSpill(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, store.Options{})
	s := NewWith(Config{Store: st})
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		return nil, core.Stats{}, &core.BudgetError{Bytes: 2, Budget: 1}
	}
	// Kill the spill: the scratch directory is gone, so MkdirTemp fails.
	if err := os.RemoveAll(st.ScratchDir()); err != nil {
		t.Fatal(err)
	}
	m := mustParseBaskets(t, "a b\na b\n")
	_, _, err := mineMem(s, &s.imps, &dataset{m: m, info: info("d", m), prep: core.Prepare(m)}, core.FromPercent(80), core.Options{}, params{workers: 1})
	if err == nil {
		t.Fatal("failed spill reported success")
	}
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("triggering budget error lost from the chain: %v", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill failure lost from the chain: %v", err)
	}
}

// TestPutENOSPCIs507: a full disk during the durable commit surfaces as
// 507 Insufficient Storage with the structured error body — and the
// dataset is not served, because a dataset the store could not commit
// would vanish on restart.
func TestPutENOSPCIs507(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Scenario{FailWriteAt: 1, ENOSPC: true, FailForever: true, PathContains: "blobs"})
	st := openTestStore(t, dir, store.Options{FS: in})
	s := NewWith(Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp := doPut(t, ts.URL, "doomed", "x y\nx y\n")
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("PUT on full disk: status %d, want 507", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/datasets/doomed", http.StatusNotFound, nil)
}

// TestStoreScratchRoutesSpills: with a store configured, a resident
// mine that overflows its budget spills into the store's scratch
// directory (swept at boot), not the OS temp dir, and the spill is gone
// once the mine returns.
func TestStoreScratchRoutesSpills(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, store.Options{})
	s := NewWith(Config{Store: st})
	if got := s.scratchDir(); got != st.ScratchDir() {
		t.Fatalf("scratchDir = %q, want %q", got, st.ScratchDir())
	}
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		return nil, core.Stats{}, &core.BudgetError{Bytes: 2, Budget: 1}
	}
	var spilled string
	s.imps.file = func(path string, th core.Threshold, o core.Options, cfg stream.Config) ([]rules.Implication, core.Stats, error) {
		spilled = path
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}
		return stream.MineImplicationsCfg(path, th, o, cfg)
	}
	m := mustParseBaskets(t, "a b\na b\n")
	s.Add("d", m)
	d, _ := s.get("d")
	rs, _, err := mineMem(s, &s.imps, d, core.FromPercent(80), core.Options{}, params{workers: 1})
	if err != nil || len(rs) == 0 {
		t.Fatalf("degraded mine: %d rules, err %v", len(rs), err)
	}
	rel, err := filepath.Rel(st.ScratchDir(), spilled)
	if err != nil || strings.HasPrefix(rel, "..") {
		t.Fatalf("spill %q escaped the store scratch dir %q", spilled, st.ScratchDir())
	}
	if _, err := os.Stat(spilled); !os.IsNotExist(err) {
		t.Fatalf("spill %q left behind after the mine: %v", spilled, err)
	}
}

// TestPutCorruptStoreIs503: a poisoned journal (unrepairable append
// failure) maps to 503 — the replica needs a restart, the client
// should go elsewhere — not a 500.
func TestPutCorruptStoreIs503(t *testing.T) {
	dir := t.TempDir()
	// Create the journal on a healthy disk first: the scenario tears
	// every CATALOG write, which would otherwise kill the header write
	// at Open before any request runs.
	pre := openTestStore(t, dir, store.Options{})
	pre.Close()
	in := fault.NewInjector(fault.Scenario{PartialWriteEvery: 1, PathContains: "CATALOG"})
	st := openTestStore(t, dir, store.Options{FS: in})
	s := NewWith(Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// First PUT tears the journal append and the inline repair: the
	// store poisons itself.
	resp := doPut(t, ts.URL, "first", "x y\nx y\n")
	if resp.StatusCode != http.StatusInternalServerError && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT under torn journal: status %d, want 5xx", resp.StatusCode)
	}
	// Every later PUT sees the poisoned store: 503, go elsewhere.
	resp = doPut(t, ts.URL, "second", "p q\np q\n")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT on poisoned store: status %d, want 503", resp.StatusCode)
	}
	if _, err := st.Put("direct", mustParseBaskets(t, "a b\n")); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("store not actually poisoned: %v", err)
	}
}
