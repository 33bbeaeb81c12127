package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
)

// appendedRows grows basketBody by one new column ("milk").
const appendedRows = "bread jam\ncoffee tea\nmilk bread butter\n"

// ladderServer is a server with the job subsystem open and its own
// metrics registry, so mine-run counts are per server (the cache
// counters live on obs.Default and are read as deltas).
func ladderServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	s := NewWith(cfg)
	if err := s.OpenJobs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseJobs() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// cachedLadderServer is ladderServer over a fresh store and cache.
func cachedLadderServer(t *testing.T) (*Server, string) {
	t.Helper()
	return ladderServer(t, Config{
		Store: openTestStore(t, t.TempDir(), store.Options{}),
		Cache: openTestCache(t, t.TempDir()),
	})
}

func putDataset(t *testing.T, base, name, body string) {
	t.Helper()
	if resp := doPut(t, base, name, body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
	}
}

// mineEndpoint maps a job pipeline to its mine endpoint.
var mineEndpoint = map[string]string{"imp": "implications", "sim": "similarities"}

// mineURL is the HTTP mine of dataset "d" matching a job's parameters.
func mineURL(base, pipeline string, threshold, minSupport int) string {
	return fmt.Sprintf("%s/v1/datasets/d/%s?threshold=%d&minsupport=%d", base, mineEndpoint[pipeline], threshold, minSupport)
}

// jobPayload runs one job on dataset "d" to completion and returns its
// result payload.
func jobPayload(t *testing.T, base, pipeline string, threshold, minSupport int) []byte {
	t.Helper()
	var j jobs.Job
	doJSON(t, http.MethodPost, base+"/v1/jobs", "",
		fmt.Sprintf(`{"dataset":"d","pipeline":%q,"threshold":%d,"minsupport":%d}`, pipeline, threshold, minSupport),
		http.StatusAccepted, &j)
	waitJobState(t, base, "", j.ID, jobs.StateDone)
	return jobResult(t, base, j.ID)
}

// canonicalPayload is the canonical payload of the HTTP mine of body:
// the bytes a fresh cached server stores for it after a cold scan.
func canonicalPayload(t *testing.T, body, pipeline string, threshold, minSupport int) []byte {
	t.Helper()
	s, ts := cachedTestServer(t)
	putDataset(t, ts.URL, "d", body)
	var r minedReply
	getJSON(t, mineURL(ts.URL, pipeline, threshold, minSupport), http.StatusOK, &r)
	if r.Source != "" || r.Total == 0 {
		t.Fatalf("reference mine: source %q, %d rules; want a cold scan with rules", r.Source, r.Total)
	}
	d, _ := s.get("d")
	payload, ok := s.rc.Get(cache.Key(d.hash, pipeline, params{threshold: threshold, minSupport: minSupport}.paramsKey()))
	if !ok {
		t.Fatal("the HTTP mine cached nothing")
	}
	return payload
}

// ladderKeys are the job parameters the parity test covers.
var ladderKeys = []struct {
	pipeline              string
	threshold, minSupport int
}{{"imp", 60, 0}, {"imp", 60, 2}, {"sim", 30, 0}, {"sim", 30, 2}}

// TestLadderJobPayloadParity: a job's payload is byte-identical to the
// canonical payload of the same HTTP mine on every rung — a resident
// scan, a streamed scan, a cache hit and a derivation from the miss
// counters after an append — for both families, with and without
// support pruning.
func TestLadderJobPayloadParity(t *testing.T) {
	grown := basketBody + appendedRows
	for _, k := range ladderKeys {
		name := fmt.Sprintf("%s/t=%d/ms=%d", k.pipeline, k.threshold, k.minSupport)
		t.Run(name, func(t *testing.T) {
			want := canonicalPayload(t, basketBody, k.pipeline, k.threshold, k.minSupport)
			wantGrown := canonicalPayload(t, grown, k.pipeline, k.threshold, k.minSupport)
			check := func(rung, base string, want []byte, moved func() int64) {
				t.Helper()
				before := moved()
				if got := jobPayload(t, base, k.pipeline, k.threshold, k.minSupport); !bytes.Equal(got, want) {
					t.Fatalf("%s: job payload differs from the HTTP mine's:\n%s\nvs\n%s", rung, got, want)
				}
				if moved()-before != 1 {
					t.Fatalf("%s: the job did not take that rung", rung)
				}
			}
			runs := func(s *Server) func() int64 {
				return func() int64 { return s.metrics.runs.With(k.pipeline).Value() }
			}

			s, base := ladderServer(t, Config{})
			putDataset(t, base, "d", basketBody)
			check("resident scan", base, want, runs(s))

			s, base = ladderServer(t, Config{Store: openTestStore(t, t.TempDir(), store.Options{}), StreamMinBytes: 1})
			putDataset(t, base, "d", basketBody)
			if d, _ := s.get("d"); d.m != nil {
				t.Fatal("dataset registered resident, want file-backed")
			}
			check("streamed scan", base, want, runs(s))

			s, base = cachedLadderServer(t)
			putDataset(t, base, "d", basketBody)
			getJSON(t, mineURL(base, k.pipeline, k.threshold, k.minSupport), http.StatusOK, nil)
			check("cache hit", base, want, cacheHits)

			s, base = cachedLadderServer(t)
			putDataset(t, base, "d", basketBody)
			if resp := doAppend(t, base, "d", appendedRows); resp.StatusCode != http.StatusOK {
				t.Fatalf("append: status %d", resp.StatusCode)
			}
			check("snapshot", base, wantGrown, func() int64 { return s.metrics.incMines.With(k.pipeline).Value() })
		})
	}
}

// TestLadderJobCacheHit: a job for a cached key is a cache hit, not a
// scan.
func TestLadderJobCacheHit(t *testing.T) {
	s, base := cachedLadderServer(t)
	putDataset(t, base, "d", basketBody)
	getJSON(t, mineURL(base, "imp", 80, 0), http.StatusOK, nil)
	hits, runs := cacheHits(), s.metrics.runs.With("imp").Value()
	jobPayload(t, base, "imp", 80, 0)
	if d := cacheHits() - hits; d != 1 {
		t.Fatalf("dmc_cache_hits_total moved by %d, want 1", d)
	}
	if d := s.metrics.runs.With("imp").Value() - runs; d != 0 {
		t.Fatalf("dmc_mine_runs_total moved by %d, want 0", d)
	}
}

// TestLadderJobWarmsCache: a job's scan warms the cache, so the next
// HTTP mine of the same key is a replay.
func TestLadderJobWarmsCache(t *testing.T) {
	_, base := cachedLadderServer(t)
	putDataset(t, base, "d", basketBody)
	jobPayload(t, base, "sim", 30, 0)
	var r minedReply
	getJSON(t, mineURL(base, "sim", 30, 0), http.StatusOK, &r)
	if r.Source != "cache" {
		t.Fatalf("mine after the job: source %q, want cache", r.Source)
	}
}

// TestLadderExpandRungs: /expand answers the same groups whether its
// key is cold, cached or derived from the dataset's miss counters.
func TestLadderExpandRungs(t *testing.T) {
	expand := func(base string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/v1/datasets/d/expand?keyword=bread&threshold=60")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("expand: status %d\n%s", resp.StatusCode, body)
		}
		return body
	}
	fresh := func(body string) []byte {
		t.Helper()
		_, base := ladderServer(t, Config{})
		putDataset(t, base, "d", body)
		return expand(base)
	}

	s, base := cachedLadderServer(t)
	putDataset(t, base, "d", basketBody)
	cold := expand(base)
	if want := fresh(basketBody); !bytes.Equal(cold, want) {
		t.Fatalf("cold expand differs from a cacheless server's:\n%s\nvs\n%s", cold, want)
	}
	hits := cacheHits()
	if cached := expand(base); !bytes.Equal(cached, cold) || cacheHits()-hits != 1 {
		t.Fatalf("cached expand (%d hits) differs:\n%s\nvs\n%s", cacheHits()-hits, cached, cold)
	}
	if resp := doAppend(t, base, "d", appendedRows); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	inc := s.metrics.incMines.With("imp").Value()
	derived := expand(base)
	if s.metrics.incMines.With("imp").Value()-inc != 1 {
		t.Fatal("expand after an append did not derive from the counters")
	}
	if want := fresh(basketBody + appendedRows); !bytes.Equal(derived, want) {
		t.Fatalf("derived expand differs from a cold one:\n%s\nvs\n%s", derived, want)
	}
}

// TestLadderShardSkipsSnapshot: a fleet shard task on a dataset that
// holds miss counters returns only its own columns' rules — a
// derivation from the counters ignores the shard — byte-identical to a
// cacheless worker.
func TestLadderShardSkipsSnapshot(t *testing.T) {
	grown, err := matrix.ReadBaskets(strings.NewReader(basketBody + appendedRows))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := store.ContentHash(grown)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(Config{FleetWorker: true, Registry: obs.NewRegistry(), Cache: openTestCache(t, t.TempDir())})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	putDataset(t, ts.URL, "d", basketBody)
	if resp := doAppend(t, ts.URL, "d", appendedRows); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d", resp.StatusCode)
	}
	d, _ := s.get("d")
	if d.hash != hash {
		t.Fatalf("appended dataset hash %q, want %q", d.hash, hash)
	}
	if d.inc == nil {
		t.Fatal("the append left the dataset no miss counters; the test is vacuous")
	}
	plain := NewWith(Config{FleetWorker: true, Registry: obs.NewRegistry()})
	plain.Add("d", grown)
	pts := httptest.NewServer(plain.Handler())
	t.Cleanup(pts.Close)

	shard := func(base, mode string) []byte {
		t.Helper()
		body, _ := json.Marshal(fleet.Task{Dataset: "d", Hash: hash, Mode: mode, Threshold: 30, ColLo: 0, ColHi: 2})
		resp, err := http.Post(base+fleet.ShardPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard: status %d\n%s", resp.StatusCode, payload)
		}
		return payload
	}
	for _, mode := range []string{"imp", "sim"} {
		got, want := shard(ts.URL, mode), shard(pts.URL, mode)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s shard on a dataset with counters:\n%s\nwant the cacheless worker's\n%s", mode, got, want)
		}
		if mode == "imp" {
			rs, err := rules.ReadImplications(bytes.NewReader(got))
			if err != nil || len(rs) == 0 {
				t.Fatalf("imp shard: %d rules, err %v", len(rs), err)
			}
			for _, r := range rs {
				if r.From >= 2 {
					t.Fatalf("shard [0,2) returned %v, owned by another shard", r)
				}
			}
		}
	}
	if n := s.metrics.incMines.With("imp").Value() + s.metrics.incMines.With("sim").Value(); n != 0 {
		t.Fatalf("shard tasks derived %d times from the counters", n)
	}
}

// TestLadderScanElapsedWallTime: a scan's elapsed_ms is wall time from
// the ladder's start, not the engine's own Stats.Total.
func TestLadderScanElapsedWallTime(t *testing.T) {
	s := NewWith(Config{Registry: obs.NewRegistry()})
	s.Add("d", mustParseBaskets(t, basketBody))
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		time.Sleep(50 * time.Millisecond)
		return []rules.Implication{{From: 0, To: 1, Hits: 2, Ones: 2}}, core.Stats{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var r MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &r)
	if r.Source != "" || r.ElapsedMS < 50 {
		t.Fatalf("scan: source %q, elapsed_ms %d; want a scan of at least 50 ms", r.Source, r.ElapsedMS)
	}
}

// TestLadderFleetParamValidatedFirst: ?fleet=1 on a server without a
// coordinator is a 400 whether or not the key is cached.
func TestLadderFleetParamValidatedFirst(t *testing.T) {
	_, ts := cachedTestServer(t)
	putDataset(t, ts.URL, "d", basketBody)
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, nil)
	var r minedReply
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &r)
	if r.Source != "cache" {
		t.Fatalf("repeat mine: source %q, want cache", r.Source)
	}
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80&fleet=1", http.StatusBadRequest, nil)
}

// fetchMine is getJSON for a goroutine other than the test's: it
// returns the failure instead of ending the test.
func fetchMine(url string) (minedReply, error) {
	var r minedReply
	resp, err := http.Get(url)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return r, json.NewDecoder(resp.Body).Decode(&r)
}

// TestLadderConcurrentJobsAndMines: HTTP mines and jobs racing on one
// cold key through one ladder all return the same rules, whichever of
// them fills the cache.
func TestLadderConcurrentJobsAndMines(t *testing.T) {
	_, base := cachedLadderServer(t)
	putDataset(t, base, "d", basketBody)
	const n = 4
	mines := make([]minedReply, n)
	errs := make([]error, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mines[i], errs[i] = fetchMine(mineURL(base, "imp", 60, 0))
		}(i)
		var j jobs.Job
		doJSON(t, http.MethodPost, base+"/v1/jobs", "", `{"dataset":"d","pipeline":"imp","threshold":60}`, http.StatusAccepted, &j)
		ids[i] = j.ID
	}
	wg.Wait()
	want := canonicalPayload(t, basketBody, "imp", 60, 0)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(mines[i].Rules, mines[0].Rules) {
			t.Fatalf("racing mines disagree:\n%s\nvs\n%s", mines[i].Rules, mines[0].Rules)
		}
		waitJobState(t, base, "", ids[i], jobs.StateDone)
		if got := jobResult(t, base, ids[i]); !bytes.Equal(got, want) {
			t.Fatalf("racing job's payload differs from the HTTP mine's:\n%s\nvs\n%s", got, want)
		}
	}
}

// TestLadderAbandonedScan: a scan that outlives its request deadline
// finishes in the background without touching anything the handler
// read (the race detector watches), frees its slot, and leaves the
// server serving.
func TestLadderAbandonedScan(t *testing.T) {
	s := NewWith(Config{RequestTimeout: 20 * time.Millisecond, Registry: obs.NewRegistry()})
	s.Add("d", mustParseBaskets(t, basketBody))
	finished := make(chan struct{})
	s.imps.resident = func(*core.Prepared, core.Threshold, core.Options, int) ([]rules.Implication, core.Stats, error) {
		defer close(finished)
		time.Sleep(80 * time.Millisecond) // ignores its context
		return []rules.Implication{{From: 0, To: 1, Hits: 2, Ones: 2}}, core.Stats{NumRules: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusServiceUnavailable, nil)
	<-finished
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned scan never released its slot")
		}
		time.Sleep(time.Millisecond)
	}
	s.imps.resident = impPipeline.resident
	var r MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &r)
	if r.Total == 0 {
		t.Fatal("the server mined nothing after an abandoned scan")
	}
}
