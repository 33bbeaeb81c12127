package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

func doPut(t *testing.T, base, name, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/datasets/"+url.PathEscape(name), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestPutRejectsInvalidNames(t *testing.T) {
	ts := testServer(t)
	for _, name := range []string{".hidden", "a..b", "sp ace", "tab\tname", "-lead", strings.Repeat("x", 200)} {
		if resp := doPut(t, ts.URL, name, "x y\n"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT name %q: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Sane names still work.
	for _, name := range []string{"ok", "A-1_2.basket", "0start"} {
		if resp := doPut(t, ts.URL, name, "x y\nx z\n"); resp.StatusCode != http.StatusCreated {
			t.Errorf("PUT name %q: status %d, want 201", name, resp.StatusCode)
		}
	}
}

func TestPutTooLargeIs413(t *testing.T) {
	s := NewWith(Config{MaxUploadBytes: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body := strings.Repeat("word1 word2 word3\n", 32) // way past 64 bytes
	if resp := doPut(t, ts.URL, "big", body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: status %d, want 413", resp.StatusCode)
	}
	// Under the cap is fine.
	if resp := doPut(t, ts.URL, "small", "x y\n"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("small PUT: status %d, want 201", resp.StatusCode)
	}
}

func TestUnknownDatasetIs404(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{
		"/v1/datasets/nope", "/v1/datasets/nope/implications",
		"/v1/datasets/nope/similarities", "/v1/datasets/nope/expand?keyword=x",
	} {
		getJSON(t, ts.URL+path, http.StatusNotFound, nil)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Mine once so the mining series have data.
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"dmc_http_requests_total{",
		`endpoint="/v1/datasets/{name}/implications"`,
		"dmc_http_request_seconds_bucket{",
		`dmc_mine_phase_seconds_bucket{`,
		`pipeline="imp"`,
		"dmc_mine_runs_total{",
		"dmc_stream_passes_total",
		"dmc_stream_spilled_rows_total",
		"dmc_datasets_loaded",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	// JSON form parses.
	resp2, err := http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var fams []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&fams); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if len(fams) == 0 {
		t.Fatal("metrics JSON empty")
	}
}

func TestRequestIDHeader(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID on response")
	}
}

func TestPprofMounting(t *testing.T) {
	on := httptest.NewServer(NewWith(Config{EnablePprof: true}).Handler())
	t.Cleanup(on.Close)
	resp, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", resp.StatusCode)
	}

	off := httptest.NewServer(New().Handler())
	t.Cleanup(off.Close)
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
}

// slowServer returns a server whose imp miner blocks for d before
// returning one dummy rule.
func slowServer(t *testing.T, cfg Config, d time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWith(cfg)
	m, err := matrix.ReadBaskets(strings.NewReader("a b\na b\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("slow", m)
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		time.Sleep(d)
		return []rules.Implication{{From: 0, To: 1, Hits: 2, Ones: 2}}, core.Stats{NumRules: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestMiningDeadline503(t *testing.T) {
	s, ts := slowServer(t, Config{RequestTimeout: 30 * time.Millisecond}, 2*time.Second)
	getJSON(t, ts.URL+"/v1/datasets/slow/implications", http.StatusServiceUnavailable, nil)
	if got := s.metrics.timeouts.Value(); got < 1 {
		t.Fatalf("timeout counter = %d, want >= 1", got)
	}
}

func TestMiningConcurrencyLimit(t *testing.T) {
	_, ts := slowServer(t, Config{RequestTimeout: 150 * time.Millisecond, MaxConcurrentMines: 1}, 2*time.Second)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/datasets/slow/implications")
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
		time.Sleep(40 * time.Millisecond) // ensure request 0 holds the slot first
	}
	wg.Wait()
	// The slot holder times out (503); the queued request never gets the
	// slot within its deadline (429).
	if codes[0] != http.StatusServiceUnavailable {
		t.Errorf("first request: status %d, want 503", codes[0])
	}
	if codes[1] != http.StatusTooManyRequests {
		t.Errorf("queued request: status %d, want 429", codes[1])
	}
}

func TestGracefulShutdownDrainsMining(t *testing.T) {
	s, _ := slowServer(t, Config{ShutdownGrace: 5 * time.Second}, 250*time.Millisecond)
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	type reply struct {
		status int
		resp   MineResponse[ImplicationWire]
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		var r reply
		resp, err := http.Get(base + "/v1/datasets/slow/implications")
		if err != nil {
			r.err = err
		} else {
			r.status = resp.StatusCode
			r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		got <- r
	}()

	time.Sleep(75 * time.Millisecond) // request is now mid-mine
	cancel()                          // begin graceful shutdown

	select {
	case r := <-got:
		if r.err != nil || r.status != http.StatusOK || r.resp.Total != 1 {
			t.Fatalf("in-flight request not drained cleanly: %+v", r)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not return after shutdown")
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
