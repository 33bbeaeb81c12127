package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
)

// fleetTestMatrix builds a reproducible random dataset with labels, so
// fleet responses exercise the coordinator-side label resolution.
func fleetTestMatrix(t *testing.T, seed int64, rows, cols int) *matrix.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		n := 0
		for c := 0; c < cols; c++ {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "item%02d ", c)
				n++
			}
		}
		if n == 0 {
			fmt.Fprintf(&sb, "item%02d ", rng.Intn(cols))
		}
		sb.WriteByte('\n')
	}
	m, err := matrix.ReadBaskets(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fleetCluster is a coordinator server wired over n in-process worker
// servers, each a full *Server with the fleet endpoints mounted.
type fleetCluster struct {
	coord   *httptest.Server
	workers []*httptest.Server
	reg     *fleet.Registry
	obs     *obs.Registry
}

// startFleet boots n workers and a coordinator holding m as "d".
// wrap, when non-nil, decorates each worker's handler (fault
// injection).
func startFleet(t *testing.T, n int, m *matrix.Matrix, wrap func(i int, h http.Handler) http.Handler) *fleetCluster {
	t.Helper()
	fc := &fleetCluster{obs: obs.NewRegistry()}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ws := NewWith(Config{FleetWorker: true})
		h := http.Handler(ws.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		fc.workers = append(fc.workers, ts)
		urls[i] = ts.URL
	}
	reg, err := fleet.NewRegistry(urls, fc.obs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	fc.reg = reg
	cs := NewWith(Config{Fleet: fleet.NewCoordinator(reg, fleet.Options{})})
	cs.Add("d", m)
	fc.coord = httptest.NewServer(cs.Handler())
	t.Cleanup(fc.coord.Close)
	return fc
}

// mineRules fetches a mine response and returns the marshaled rules
// payload — the byte-comparable part (ElapsedMS and Source legitimately
// differ between a fleet and a serial run).
func mineRules(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var mr struct {
		Total int             `json:"total_rules"`
		Rules json.RawMessage `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	return mr.Rules
}

// TestFleetMineParity is the heart of the fleet PR: a ?fleet=1 mine
// scattered over 2 or 4 workers renders byte-identically to the same
// request served by a plain single-node server, for both families
// across thresholds.
func TestFleetMineParity(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		m := fleetTestMatrix(t, seed, 50, 18)
		serial := NewWith(Config{})
		serial.Add("d", m)
		ref := httptest.NewServer(serial.Handler())
		t.Cleanup(ref.Close)

		for _, nw := range []int{2, 4} {
			fc := startFleet(t, nw, m, nil)
			for _, family := range []string{"implications", "similarities"} {
				for _, th := range []int{100, 80, 65} {
					q := fmt.Sprintf("/v1/datasets/d/%s?threshold=%d", family, th)
					got := mineRules(t, fc.coord.URL+q+"&fleet=1")
					want := mineRules(t, ref.URL+q)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d, %d workers, %s@%d: fleet payload diverges\nfleet:  %s\nserial: %s",
							seed, nw, family, th, got, want)
					}
				}
			}
			if v := fc.obs.CounterVec("dmc_fleet_mines_total", "", "mode").With("imp").Value(); v == 0 {
				t.Fatal("fleet mines not counted")
			}
		}
	}
}

// TestFleetColdWorkers: workers that have never seen the dataset get
// replicas pushed on first contact and the mine still matches.
func TestFleetColdWorkers(t *testing.T) {
	m := fleetTestMatrix(t, 3, 40, 12)
	serial := NewWith(Config{})
	serial.Add("d", m)
	ref := httptest.NewServer(serial.Handler())
	t.Cleanup(ref.Close)

	fc := startFleet(t, 2, m, nil)
	q := "/v1/datasets/d/implications?threshold=75"
	if got, want := mineRules(t, fc.coord.URL+q+"&fleet=1"), mineRules(t, ref.URL+q); !bytes.Equal(got, want) {
		t.Fatalf("cold-worker fleet payload diverges\nfleet:  %s\nserial: %s", got, want)
	}
	if v := fc.obs.Counter("dmc_fleet_dataset_pushes_total", "").Value(); v != 2 {
		t.Fatalf("dataset pushes = %d, want 2 (one per cold worker)", v)
	}
	// Second mine: replicas are warm, no new pushes, cache serves.
	_ = mineRules(t, fc.coord.URL+q+"&fleet=1")
	if v := fc.obs.Counter("dmc_fleet_dataset_pushes_total", "").Value(); v != 2 {
		t.Fatalf("warm workers re-pushed: %d", v)
	}
}

// abortOnce aborts the first matching request through it — the HTTP
// face of a worker dying mid-pass.
type abortOnce struct {
	next  http.Handler
	path  string
	armed atomic.Bool
}

func (a *abortOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == a.path && a.armed.CompareAndSwap(true, false) {
		panic(http.ErrAbortHandler)
	}
	a.next.ServeHTTP(w, r)
}

// TestFleetFaultMatrix kills workers mid-pass in several ways and
// asserts the coordinator requeues and the final rules stay
// byte-identical to the serial reference.
func TestFleetFaultMatrix(t *testing.T) {
	m := fleetTestMatrix(t, 4, 45, 16)
	serial := NewWith(Config{})
	serial.Add("d", m)
	ref := httptest.NewServer(serial.Handler())
	t.Cleanup(ref.Close)
	q := "/v1/datasets/d/similarities?threshold=60"
	want := mineRules(t, ref.URL+q)

	t.Run("worker dies mid-shard", func(t *testing.T) {
		var aborts []*abortOnce
		fc := startFleet(t, 2, m, func(i int, h http.Handler) http.Handler {
			a := &abortOnce{next: h, path: fleet.ShardPath}
			if i == 0 {
				a.armed.Store(true)
			}
			aborts = append(aborts, a)
			return a
		})
		got := mineRules(t, fc.coord.URL+q+"&fleet=1")
		if !bytes.Equal(got, want) {
			t.Fatalf("post-requeue payload diverges\nfleet:  %s\nserial: %s", got, want)
		}
		if v := fc.obs.Counter("dmc_fleet_requeues_total", "").Value(); v == 0 {
			t.Fatal("dead worker did not requeue")
		}
	})

	t.Run("worker gone before scatter", func(t *testing.T) {
		fc := startFleet(t, 2, m, nil)
		fc.workers[1].Close() // node down entirely; probe has not noticed
		got := mineRules(t, fc.coord.URL+q+"&fleet=1")
		if !bytes.Equal(got, want) {
			t.Fatalf("payload diverges with a dead node\nfleet:  %s\nserial: %s", got, want)
		}
		if v := fc.obs.Counter("dmc_fleet_requeues_total", "").Value(); v == 0 {
			t.Fatal("dead node did not requeue")
		}
	})

	t.Run("all workers gone", func(t *testing.T) {
		fc := startFleet(t, 2, m, nil)
		fc.workers[0].Close()
		fc.workers[1].Close()
		resp, err := http.Get(fc.coord.URL + q + "&fleet=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("fleet mine with no workers: status %d", resp.StatusCode)
		}
	})
}

// TestFleetShutdownLeaks: a cluster that mined, probed and closed must
// return to baseline goroutine and fd counts — pooled transports and
// probe loops all released.
func TestFleetShutdownLeaks(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	m := fleetTestMatrix(t, 5, 30, 10)

	// Warm-up cycle so lazy runtime helpers don't read as leaks.
	run := func() {
		fc := startFleet(t, 2, m, nil)
		fc.reg.Start(time.Millisecond)
		_ = mineRules(t, fc.coord.URL+"/v1/datasets/d/implications?threshold=80&fleet=1")
		fc.reg.Close()
		fc.coord.Close()
		for _, w := range fc.workers {
			w.Close()
		}
	}
	run()
	runtime.GC()
	baseG, baseFD := runtime.NumGoroutine(), countFDs()

	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseG && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseG {
		t.Fatalf("goroutines leaked: %d > baseline %d", g, baseG)
	}
	if fd := countFDs(); baseFD >= 0 && fd > baseFD {
		t.Fatalf("fds leaked: %d > baseline %d", fd, baseFD)
	}
}

// TestFleetShardEndpoint drives a worker's shard endpoint directly:
// partial results are cached under shard-suffixed keys and never alias
// the full mine.
func TestFleetShardEndpoint(t *testing.T) {
	m := fleetTestMatrix(t, 6, 40, 12)
	s := NewWith(Config{FleetWorker: true})
	s.Add("d", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	hash, err := store.ContentHash(m)
	if err != nil {
		t.Fatal(err)
	}

	post := func(task fleet.Task) *http.Response {
		t.Helper()
		body, _ := json.Marshal(task)
		resp, err := http.Post(ts.URL+fleet.ShardPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	task := fleet.Task{Dataset: "d", Hash: hash, Mode: "imp", Threshold: 70, ColLo: 0, ColHi: 5}

	resp := post(task)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard post: status %d", resp.StatusCode)
	}
	shardRules, err := rules.ReadImplications(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The shard holds exactly the full mine's rules with From in [0,5).
	full := core.NaiveImplications(m, core.FromPercent(70))
	var wantShard []rules.Implication
	for _, r := range full {
		if int(r.From) < 5 {
			wantShard = append(wantShard, r)
		}
	}
	rules.SortImplications(wantShard)
	if d := rules.DiffImplications(shardRules, wantShard); d != "" {
		t.Fatal(d)
	}

	// The partial result must not alias the full mine through the cache.
	fullPayload := mineRules(t, ts.URL+"/v1/datasets/d/implications?threshold=70")
	var wire []json.RawMessage
	if err := json.Unmarshal(fullPayload, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(full) {
		t.Fatalf("full mine after shard mine returned %d rules, want %d (cache aliasing?)", len(wire), len(full))
	}

	// Protocol errors: wrong hash 409, unknown dataset 404, bad range 400.
	for _, tc := range []struct {
		mut  func(*fleet.Task)
		want int
	}{
		{func(tk *fleet.Task) { tk.Hash = "deadbeef" }, http.StatusConflict},
		{func(tk *fleet.Task) { tk.Dataset = "nope" }, http.StatusNotFound},
		{func(tk *fleet.Task) { tk.ColHi = 99 }, http.StatusBadRequest},
		{func(tk *fleet.Task) { tk.Mode = "rank" }, http.StatusBadRequest},
	} {
		bad := task
		tc.mut(&bad)
		resp := post(bad)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("shard %+v: status %d, want %d", bad, resp.StatusCode, tc.want)
		}
	}
}

// TestFleetShardPayloadCRC: every shard payload carries the CRC-32C
// header matching its body — the end-to-end integrity check that turns
// in-flight truncation or corruption into a retry instead of a silent
// bad merge.
func TestFleetShardPayloadCRC(t *testing.T) {
	m := fleetTestMatrix(t, 8, 30, 10)
	s := NewWith(Config{FleetWorker: true})
	s.Add("d", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	hash, err := store.ContentHash(m)
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(fleet.Task{Dataset: "d", Hash: hash, Mode: "imp", Threshold: 70, ColLo: 0, ColHi: 10})
	resp, err := http.Post(ts.URL+fleet.ShardPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard post: status %d", resp.StatusCode)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Header.Get(fleet.PayloadCRCHeader)
	if got == "" {
		t.Fatalf("shard response has no %s header", fleet.PayloadCRCHeader)
	}
	if want := fleet.PayloadCRC(payload); got != want {
		t.Fatalf("%s = %q, body CRC %q", fleet.PayloadCRCHeader, got, want)
	}
	if cl := resp.ContentLength; cl != int64(len(payload)) {
		t.Fatalf("Content-Length %d, body %d bytes", cl, len(payload))
	}
}

// TestFleetStatusEndpoint: a coordinator exposes its live fleet view —
// per-node health and breaker position plus the hedge delay — and
// non-coordinator replicas do not mount the route.
func TestFleetStatusEndpoint(t *testing.T) {
	m := fleetTestMatrix(t, 9, 30, 10)
	fc := startFleet(t, 2, m, nil)

	var st struct {
		Nodes []fleet.NodeStatus `json:"nodes"`
		Hedge int64              `json:"hedge_after_ms"`
	}
	getJSON(t, fc.coord.URL+"/v1/fleet/status", http.StatusOK, &st)
	if len(st.Nodes) != 2 {
		t.Fatalf("status nodes = %d, want 2", len(st.Nodes))
	}
	for _, n := range st.Nodes {
		if n.Breaker != "closed" || !n.Healthy {
			t.Fatalf("fresh fleet node %+v, want healthy + closed breaker", n)
		}
	}

	plain := New()
	ts := httptest.NewServer(plain.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status on non-coordinator: %d, want 404", resp.StatusCode)
	}
}

// TestFleetParamGating: ?fleet=1 on a server with no coordinator is a
// clean 400, and fleet worker endpoints are absent unless enabled.
func TestFleetParamGating(t *testing.T) {
	s := New()
	s.Add("d", fleetTestMatrix(t, 7, 10, 6))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/datasets/d/implications?threshold=80&fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fleet=1 without coordinator: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+fleet.ShardPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("shard endpoint on non-worker: status %d, want 404", resp.StatusCode)
	}

	// Info is always mounted (any replica can be probed).
	var info fleet.Info
	getJSON(t, ts.URL+fleet.InfoPath, http.StatusOK, &info)
	if info.Status != "ready" || info.Datasets != 1 {
		t.Fatalf("info = %+v", info)
	}
}

// TestShardParamsKey: the cache key suffix keeps sharded partials and
// full mines apart, and legacy keys are untouched.
func TestShardParamsKey(t *testing.T) {
	full := params{threshold: 80, minSupport: 2}
	if got := full.paramsKey(); got != "t=80 ms=2" {
		t.Fatalf("legacy key changed: %q", got)
	}
	sharded := full
	sharded.shard = &core.ShardRange{Lo: 3, Hi: 9}
	if got := sharded.paramsKey(); got != "t=80 ms=2 cols=3-9" {
		t.Fatalf("shard key = %q", got)
	}
	if full.paramsKey() == sharded.paramsKey() {
		t.Fatal("shard key aliases full key")
	}
}

// TestRetryAfterOn503: every 503 the server issues carries Retry-After
// so fleet (and any other) retry loops can back off uniformly.
func TestRetryAfterOn503(t *testing.T) {
	s := New()
	s.SetReady(false)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while loading: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("loading 503 has no Retry-After")
	}
}
