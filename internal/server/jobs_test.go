package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
)

// jobsServer builds a server with the async job subsystem open on a
// temp journal directory and one resident dataset named "baskets".
func jobsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWith(cfg)
	m, err := matrix.ReadBaskets(strings.NewReader(
		"bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\ncoffee tea\nbread butter tea\njam bread butter\ncoffee\nbread butter jam coffee\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("baskets", m)
	if err := s.OpenJobs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseJobs() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues one request with an optional tenant header and decodes
// the JSON response body into v (when non-nil).
func doJSON(t *testing.T, method, url, tenant, body string, wantStatus int, v any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d\n%s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, raw)
		}
	}
	return resp
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches want.
func waitJobState(t *testing.T, base, tenant, id string, want jobs.State) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var j jobs.Job
	for time.Now().Before(deadline) {
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, tenant, "", http.StatusOK, &j)
		if j.State == want {
			return j
		}
		if j.State.Terminal() && j.State != want {
			t.Fatalf("job %s reached %s (err=%q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %s)", id, want, j.State)
	return j
}

func TestJobsDisabled503(t *testing.T) {
	ts := testServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", `{"dataset":"baskets","pipeline":"imp","threshold":80}`,
		http.StatusServiceUnavailable, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "", "", http.StatusServiceUnavailable, nil)
}

// TestJobLifecycleHTTP drives the full async path over the wire: submit
// returns 202 with a Location, the job runs to done, and the result
// payload is the same canonical rule set the synchronous endpoint
// derives.
func TestJobLifecycleHTTP(t *testing.T) {
	_, ts := jobsServer(t, Config{})
	var j jobs.Job
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, j.ID)
	}
	done := waitJobState(t, ts.URL, "", j.ID, jobs.StateDone)
	if done.Rules == 0 || done.Result == "" {
		t.Fatalf("done job = %+v", done)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result", nil)
	rr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	payload, _ := io.ReadAll(rr.Body)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d\n%s", rr.StatusCode, payload)
	}
	rs, err := rules.ReadImplications(bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("result payload unparseable: %v", err)
	}
	if len(rs) != done.Rules {
		t.Fatalf("payload holds %d rules, job reported %d", len(rs), done.Rules)
	}

	// The async answer matches the synchronous endpoint's rule count.
	var sync MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &sync)
	if sync.Total != done.Rules {
		t.Fatalf("async mined %d rules, sync mined %d", done.Rules, sync.Total)
	}

	var list []jobs.Job
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "", "", http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestJobSubmitValidationHTTP(t *testing.T) {
	_, ts := jobsServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown dataset", `{"dataset":"nope","pipeline":"imp","threshold":80}`, http.StatusNotFound},
		{"bad pipeline", `{"dataset":"baskets","pipeline":"magic","threshold":80}`, http.StatusBadRequest},
		{"threshold over 100", `{"dataset":"baskets","pipeline":"imp","threshold":180}`, http.StatusBadRequest},
		{"negative minsupport", `{"dataset":"baskets","pipeline":"imp","threshold":80,"minsupport":-1}`, http.StatusBadRequest},
		{"workers out of range", `{"dataset":"baskets","pipeline":"imp","threshold":80,"workers":100000}`, http.StatusBadRequest},
		{"prefilter on imp", `{"dataset":"baskets","pipeline":"imp","threshold":80,"prefilter":true}`, http.StatusBadRequest},
		{"unknown field", `{"dataset":"baskets","pipeline":"imp","threshold":80,"bogus":1}`, http.StatusBadRequest},
		{"not json", `threshold=80`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", tc.body, tc.status, nil)
		})
	}
}

// slowJobsServer wires a mine that blocks for d (or until cancelled)
// under the job subsystem.
func slowJobsServer(t *testing.T, cfg Config, d time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := jobsServer(t, cfg)
	s.imps.resident = func(_ *core.Prepared, _ core.Threshold, o core.Options, _ int) ([]rules.Implication, core.Stats, error) {
		select {
		case <-time.After(d):
		case <-o.Ctx.Done():
			return nil, core.Stats{}, o.Ctx.Err()
		}
		return []rules.Implication{{From: 0, To: 1, Hits: 2, Ones: 2}}, core.Stats{NumRules: 1}, nil
	}
	return s, ts
}

func TestJobCancelHTTP(t *testing.T) {
	_, ts := slowJobsServer(t, Config{}, time.Minute)
	var j jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)
	waitJobState(t, ts.URL, "", j.ID, jobs.StateRunning)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "", "", http.StatusAccepted, nil)
	waitJobState(t, ts.URL, "", j.ID, jobs.StateCancelled)
	// Cancelling a finished job conflicts; its result never existed.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "", "", http.StatusConflict, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/result", "", "", http.StatusConflict, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/nope", "", "", http.StatusNotFound, nil)
}

// TestJobTenantIsolationHTTP: jobs are invisible across the tenant
// header — gets, cancels and lists all answer as if the job never
// existed.
func TestJobTenantIsolationHTTP(t *testing.T) {
	_, ts := jobsServer(t, Config{})
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/mine", "alice", "x y\nx y\n", http.StatusCreated, nil)
	var j jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice",
		`{"dataset":"mine","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)
	if j.Tenant != "alice" {
		t.Fatalf("job tenant = %q", j.Tenant)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID, "bob", "", http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "bob", "", http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", "bob", "", http.StatusNotFound, nil)
	var list []jobs.Job
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "bob", "", http.StatusOK, &list)
	if len(list) != 0 {
		t.Fatalf("bob sees alice's jobs: %+v", list)
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "alice", "", http.StatusOK, &list)
	if len(list) != 1 {
		t.Fatalf("alice's list = %+v", list)
	}
	// An invalid tenant name is a 400, not a silent default.
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "../escape", "", http.StatusBadRequest, nil)
}

// TestJobEventsSSE reads the progress stream end to end: frames arrive
// in SSE format with increasing ids and the stream closes itself after
// the terminal state frame.
func TestJobEventsSSE(t *testing.T) {
	_, ts := jobsServer(t, Config{})
	var j jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // returns when the job completes
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSpace(string(raw)), "\n\n")
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	last := frames[len(frames)-1]
	if !strings.Contains(last, "event: state") || !strings.Contains(last, `"state":"done"`) {
		t.Fatalf("last frame is not the terminal state:\n%s", last)
	}
	for _, f := range frames {
		if !strings.Contains(f, "id: ") || !strings.Contains(f, "data: ") {
			t.Fatalf("malformed SSE frame:\n%s", f)
		}
	}
}

// TestSSESlowReaderDropped: a subscriber that never reads must not
// backpressure the mine. The hub's per-subscriber buffer is bounded and
// publishes are non-blocking, so the job finishes on time even with a
// wedged SSE client holding the stream open.
func TestSSESlowReaderDropped(t *testing.T) {
	s, ts := jobsServer(t, Config{})
	// A mine that floods the hub with far more phase events than any
	// subscriber buffer holds.
	s.imps.resident = func(_ *core.Prepared, _ core.Threshold, o core.Options, _ int) ([]rules.Implication, core.Stats, error) {
		for i := 0; i < 500; i++ {
			o.Hooks.OnPhase("imp", fmt.Sprintf("phase-%d", i), time.Millisecond)
		}
		return []rules.Implication{{From: 0, To: 1, Hits: 2, Ones: 2}}, core.Stats{NumRules: 1}, nil
	}
	var j jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)

	// Open the stream and stop reading immediately: the response body is
	// never drained, so the handler's writes back up into the kernel
	// buffers while the hub keeps dropping what the subscriber can't take.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if done := waitJobState(t, ts.URL, "", j.ID, jobs.StateDone); done.Rules != 1 {
		t.Fatalf("job wedged behind a slow SSE reader: %+v", done)
	}
}

// TestSSEDisconnectNoLeak: clients that vanish mid-stream — before the
// job finishes — must tear down their handler goroutines and sockets.
// Goroutine and fd counts return to baseline once the clients are gone.
func TestSSEDisconnectNoLeak(t *testing.T) {
	_, ts := slowJobsServer(t, Config{}, time.Minute)
	var j jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)
	waitJobState(t, ts.URL, "", j.ID, jobs.StateRunning)

	runtime.GC()
	baseG := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		// Read the first frame so the handler is mid-stream, then vanish.
		buf := make([]byte, 1)
		resp.Body.Read(buf)
		resp.Body.Close()
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseG && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseG+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("SSE handler goroutines leaked: %d -> %d\n%s",
			baseG, got, buf[:runtime.Stack(buf, true)])
	}
	// The job is still running and cancellable — the subsystem outlived
	// its misbehaving clients.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "", "", http.StatusAccepted, nil)
	waitJobState(t, ts.URL, "", j.ID, jobs.StateCancelled)
}

// TestTenantJobQuota: MaxJobs bounds queued+running jobs per tenant;
// the breach answers 429 with a Retry-After and counts on
// dmc_tenant_quota_rejections_total, and another tenant is unaffected.
func TestTenantJobQuota(t *testing.T) {
	s, ts := slowJobsServer(t, Config{TenantQuota: TenantQuota{MaxJobs: 1}, Registry: obs.NewRegistry()}, time.Minute)
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/mine", "alice", "x y\nx y\n", http.StatusCreated, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/yours", "bob", "x y\nx y\n", http.StatusCreated, nil)
	var j jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice",
		`{"dataset":"mine","pipeline":"imp","threshold":80}`, http.StatusAccepted, &j)
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice",
		`{"dataset":"mine","pipeline":"imp","threshold":80}`, http.StatusTooManyRequests, nil)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota shed has no Retry-After")
	}
	if got := s.metrics.tenantRejects.With("alice", "jobs").Value(); got != 1 {
		t.Fatalf("dmc_tenant_quota_rejections_total{alice,jobs} = %d, want 1", got)
	}
	if got := s.metrics.shed.With(shedTenantQuota).Value(); got != 1 {
		t.Fatalf("dmc_shed_total{tenant_quota} = %d, want 1", got)
	}
	// Bob's quota is his own.
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "bob",
		`{"dataset":"yours","pipeline":"imp","threshold":80}`, http.StatusAccepted, nil)
	// Cancelling alice's job frees her slot.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "alice", "", http.StatusAccepted, nil)
	waitJobState(t, ts.URL, "alice", j.ID, jobs.StateCancelled)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "alice",
		`{"dataset":"mine","pipeline":"imp","threshold":80}`, http.StatusAccepted, nil)
}

// TestTenantDatasetQuota: MaxDatasets and MaxBytes bound each tenant's
// catalog; replacing your own dataset stays within quota, a foreign
// name is taken (409), and breaches answer 429.
func TestTenantDatasetQuota(t *testing.T) {
	s, ts := jobsServer(t, Config{TenantQuota: TenantQuota{MaxDatasets: 1}, Registry: obs.NewRegistry()})
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/a1", "alice", "x y\nx y\n", http.StatusCreated, nil)
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/a2", "alice", "x y\nx y\n", http.StatusTooManyRequests, nil)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("dataset-quota shed has no Retry-After")
	}
	if got := s.metrics.tenantRejects.With("alice", "datasets").Value(); got != 1 {
		t.Fatalf("rejections{alice,datasets} = %d, want 1", got)
	}
	// Replacing the already-owned name is not a new dataset.
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/a1", "alice", "x y z\nx y\n", http.StatusCreated, nil)
	// Bob has his own allowance but cannot take alice's name.
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/b1", "bob", "x y\nx y\n", http.StatusCreated, nil)
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/a1", "bob", "x y\nx y\n", http.StatusConflict, nil)
	// Foreign datasets are invisible, not forbidden.
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/a1", "bob", "", http.StatusNotFound, nil)
	// The default tenant ("baskets" from setup) is yet another namespace.
	var list []DatasetInfo
	doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", "alice", "", http.StatusOK, &list)
	if len(list) != 1 || list[0].Name != "a1" {
		t.Fatalf("alice's catalog = %+v", list)
	}
}

func TestTenantByteQuota(t *testing.T) {
	s, ts := jobsServer(t, Config{TenantQuota: TenantQuota{MaxBytes: 1 << 10}, Registry: obs.NewRegistry()})
	big := strings.Repeat("item0 item1 item2 item3 item4 item5 item6 item7\n", 400)
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/big", "alice", big, http.StatusTooManyRequests, nil)
	if got := s.metrics.tenantRejects.With("alice", "bytes").Value(); got != 1 {
		t.Fatalf("rejections{alice,bytes} = %d, want 1", got)
	}
	// A small dataset fits.
	doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/small", "alice", "x y\nx y\n", http.StatusCreated, nil)
}

// TestShedTaxonomyRetryAfter is the table over every shed reason: each
// carries its status, its dmc_shed_total label, and a Retry-After of at
// least one whole second.
func TestShedTaxonomyRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		reason string
		status int
		shed   shedInfo
	}{
		{shedQueueFull, http.StatusTooManyRequests,
			shedInfo{status: http.StatusTooManyRequests, reason: shedQueueFull, retryAfter: retryAfter(3 * time.Second), msg: "queue full"}},
		{shedDeadline, http.StatusTooManyRequests,
			shedInfo{status: http.StatusTooManyRequests, reason: shedDeadline, retryAfter: retryAfter(0), msg: "deadline"}},
		{shedDraining, http.StatusServiceUnavailable,
			shedInfo{status: http.StatusServiceUnavailable, reason: shedDraining, retryAfter: retryAfter(30 * time.Second), msg: "draining"}},
		{shedTenantQuota, http.StatusTooManyRequests,
			shedInfo{status: http.StatusTooManyRequests, reason: shedTenantQuota, retryAfter: retryAfter(1500 * time.Millisecond), msg: "quota"}},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			s := NewWith(Config{})
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
			before := s.metrics.shed.With(tc.reason).Value()
			s.writeShed(rec, req, &tc.shed)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d", rec.Code, tc.status)
			}
			ra := rec.Header().Get("Retry-After")
			if ra == "" {
				t.Fatal("no Retry-After header")
			}
			var secs int
			if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
				t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
			}
			if got := s.metrics.shed.With(tc.reason).Value(); got != before+1 {
				t.Fatalf("dmc_shed_total{%s} = %d, want %d", tc.reason, got, before+1)
			}
		})
	}
	// retryAfter rounds up to whole seconds with a 1s floor.
	for _, tc := range []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, time.Second},
		{10 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{1500 * time.Millisecond, 2 * time.Second},
	} {
		if got := retryAfter(tc.in); got != tc.want {
			t.Fatalf("retryAfter(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestAdmissionWeightedFairness: under contention, grants track tenant
// weights — a weight-3 tenant drains roughly three items per weight-1
// item, instead of FIFO's arrival-order convoy.
func TestAdmissionWeightedFairness(t *testing.T) {
	a := newAdmission(1, 64, map[string]int{"heavy": 3, "light": 1})
	holder, shed := a.acquire(context.Background(), "seed")
	if shed != nil {
		t.Fatalf("seed acquire shed: %+v", shed)
	}

	const perTenant = 12
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for _, tenant := range []string{"heavy", "light"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				rel, shed := a.acquire(context.Background(), tenant)
				if shed != nil {
					t.Errorf("%s shed: %+v", tenant, shed)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				rel()
			}(tenant)
		}
	}
	// Wait until every waiter is parked, then start the grant chain.
	for i := 0; a.queueDepth() != 2*perTenant; i++ {
		if i > 5000 {
			t.Fatalf("only %d waiters parked", a.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	holder()
	wg.Wait()

	// While both tenants had backlog (the first perTenant*4/3 grants),
	// heavy should hold about a 3/4 share.
	window := perTenant * 4 / 3
	heavy := 0
	for _, tenant := range order[:window] {
		if tenant == "heavy" {
			heavy++
		}
	}
	want := window * 3 / 4
	if heavy < want-2 || heavy > want+2 {
		t.Fatalf("heavy got %d of the first %d grants, want ~%d (order %v)", heavy, window, want, order)
	}
	if len(order) != 2*perTenant {
		t.Fatalf("granted %d, want %d (work conservation)", len(order), 2*perTenant)
	}
}
