package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

// TestErrorBodyCarriesRequestID: every error response is the structured
// {"error", "request_id"} object, so clients can cite a failure the
// operator can find in the trace logs.
func TestErrorBodyCarriesRequestID(t *testing.T) {
	ts := testServer(t)
	var body map[string]string
	getJSON(t, ts.URL+"/v1/datasets/nope", http.StatusNotFound, &body)
	if body["error"] == "" {
		t.Fatal("error body has no error field")
	}
	if body["request_id"] == "" {
		t.Fatal("error body has no request_id field")
	}
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=9000", http.StatusBadRequest, &body)
	if body["error"] == "" || body["request_id"] == "" {
		t.Fatalf("bad-param error body incomplete: %v", body)
	}
}

// TestClientDisconnectCancelsMine: dropping the connection mid-mine
// must cancel the pipeline via the request context — the mine goroutine
// observes ctx and aborts instead of running to completion.
func TestClientDisconnectCancelsMine(t *testing.T) {
	s := NewWith(Config{})
	m, err := matrix.ReadBaskets(strings.NewReader("a b\na b\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("slow", m)
	sawCancel := make(chan error, 1)
	s.imps.resident = func(_ *core.Prepared, _ core.Threshold, o core.Options, _ int) ([]rules.Implication, core.Stats, error) {
		<-o.Ctx.Done() // a real pipeline polls this each interrupt stride
		err := &core.CancelError{Cause: o.Ctx.Err()}
		sawCancel <- err
		return nil, core.Stats{}, err
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/datasets/slow/implications", nil)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel() // client walks away
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request should have been aborted by the client")
	}
	select {
	case err := <-sawCancel:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mine saw %v, want context.Canceled", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("disconnect never reached the mine's context")
	}
	// The count lands after the engine returns, which is after the
	// engine's signal above: wait for it.
	deadline := time.Now().Add(3 * time.Second)
	for s.metrics.cancelled.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("dmc_mines_cancelled_total did not count the abort")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetDegradeToStream: a resident mine that overflows
// Config.MemBudgetBytes must transparently re-run through the
// out-of-core engine and still return the exact rules — 200, not 507.
func TestBudgetDegradeToStream(t *testing.T) {
	s := NewWith(Config{MemBudgetBytes: 1})
	s.imps.resident = func(_ *core.Prepared, _ core.Threshold, o core.Options, _ int) ([]rules.Implication, core.Stats, error) {
		// Resident pipeline stand-in that cannot honor a 1-byte budget;
		// the streamed fallback runs the real engine, whose bitmap
		// endgame absorbs the overflow.
		return nil, core.Stats{}, &core.BudgetError{Bytes: 64, Budget: o.MemBudgetBytes, RemainingRows: 5}
	}
	m, err := matrix.ReadBaskets(strings.NewReader(
		"bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("baskets", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var resp MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=100", http.StatusOK, &resp)
	if resp.Total == 0 {
		t.Fatal("degraded mine returned no rules")
	}
	if s.metrics.degraded.Value() < 1 {
		t.Fatal("dmc_mines_degraded_total did not count the fallback")
	}
}

// TestBudgetExhausted507: when even the degraded path cannot fit the
// budget, the client gets a typed 507, not a 500 or wrong rules.
func TestBudgetExhausted507(t *testing.T) {
	s := NewWith(Config{})
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		return nil, core.Stats{}, nil
	}
	s.sims.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Similarity, core.Stats, error) {
		return nil, core.Stats{}, &core.BudgetError{Bytes: 128, Budget: 64, RemainingRows: 10}
	}
	// Make the sim degrade path fail the same way, so the 507 surfaces.
	s.sims.file = func(string, core.Threshold, core.Options, stream.Config) ([]rules.Similarity, core.Stats, error) {
		return nil, core.Stats{}, &core.BudgetError{Bytes: 128, Budget: 64, RemainingRows: 10}
	}
	m, err := matrix.ReadBaskets(strings.NewReader("a b\na b\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("d", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var body map[string]string
	getJSON(t, ts.URL+"/v1/datasets/d/similarities", http.StatusInsufficientStorage, &body)
	if !strings.Contains(body["error"], "memory budget") {
		t.Fatalf("507 body = %v", body)
	}
}
