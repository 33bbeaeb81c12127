package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/store"
)

func openTestCache(t *testing.T, dir string) *cache.Cache {
	t.Helper()
	c, err := cache.Open(dir, cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func doReq(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
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

func doAppend(t *testing.T, base, name, body string) *http.Response {
	t.Helper()
	return doReq(t, http.MethodPost, base+"/v1/datasets/"+url.PathEscape(name)+"/rows", body)
}

func cacheHits() int64 { return obs.Default.Counter("dmc_cache_hits_total", "").Value() }

// cachedTestServer is a store+cache server over fresh temp dirs.
func cachedTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st := openTestStore(t, t.TempDir(), store.Options{})
	c := openTestCache(t, t.TempDir())
	s := NewWith(Config{Store: st, Cache: c})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

const basketBody = "bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\ncoffee tea\nbread butter tea\njam bread butter\ncoffee\nbread butter jam coffee\n"

// minedReply is the byte-comparable view of a mine response.
type minedReply struct {
	Source    string          `json:"source"`
	Total     int             `json:"total_rules"`
	Truncated bool            `json:"truncated"`
	Rules     json.RawMessage `json:"rules"`
}

// TestRepeatMineServedFromCache is the tentpole acceptance check, for
// both pipelines: the second identical mine comes back source=cache
// with the hit counter incremented and the rule list byte-identical.
func TestRepeatMineServedFromCache(t *testing.T) {
	for _, tc := range []struct {
		name, family string
		threshold    int
	}{
		{"imp", "implications", 80},
		{"sim", "similarities", 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := cachedTestServer(t)
			if resp := doPut(t, ts.URL, "baskets", basketBody); resp.StatusCode != http.StatusCreated {
				t.Fatalf("PUT: %d", resp.StatusCode)
			}
			mine := func(query string) minedReply {
				var r minedReply
				getJSON(t, ts.URL+"/v1/datasets/baskets/"+tc.family+"?"+query, http.StatusOK, &r)
				return r
			}
			q := fmt.Sprintf("threshold=%d", tc.threshold)
			cold := mine(q)
			if cold.Source != "" {
				t.Fatalf("cold mine source = %q, want \"\"", cold.Source)
			}
			if cold.Total < 2 {
				t.Fatalf("cold mine found %d rules, want at least 2", cold.Total)
			}

			hits0 := cacheHits()
			warm := mine(q)
			if warm.Source != "cache" {
				t.Fatalf("repeat mine source = %q, want cache", warm.Source)
			}
			if cacheHits()-hits0 < 1 {
				t.Fatal("dmc_cache_hits_total not incremented by a repeat mine")
			}
			if warm.Total != cold.Total || string(warm.Rules) != string(cold.Rules) {
				t.Fatalf("cached mine differs:\n%s\nvs\n%s", warm.Rules, cold.Rules)
			}

			// Different params are a different key: no stale crossover.
			if other := mine("threshold=95"); other.Source == "cache" {
				t.Fatalf("different threshold served from the %d%% cache entry", tc.threshold)
			}
			// But workers and limit do not change the rule set, so they
			// share the entry.
			lim := mine(q + "&limit=1&workers=2")
			var limRules, coldRules []json.RawMessage
			if err := json.Unmarshal(lim.Rules, &limRules); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(cold.Rules, &coldRules); err != nil {
				t.Fatal(err)
			}
			if lim.Source != "cache" || !lim.Truncated || len(limRules) != 1 || !bytes.Equal(limRules[0], coldRules[0]) {
				t.Fatalf("limit over cached entry: %+v", lim)
			}
		})
	}
}

// TestCacheSurvivesRestart: a repeat mine after a full restart (new
// store, new cache over the same dirs, LoadStore) is still served from
// cache — journaled persistence end to end.
func TestCacheSurvivesRestart(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	st := openTestStore(t, storeDir, store.Options{})
	c := openTestCache(t, cacheDir)
	s := NewWith(Config{Store: st, Cache: c})
	ts := httptest.NewServer(s.Handler())
	doPut(t, ts.URL, "baskets", basketBody)
	var cold MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &cold)
	ts.Close()
	st.Close()
	c.Close()

	st2 := openTestStore(t, storeDir, store.Options{})
	c2 := openTestCache(t, cacheDir)
	s2 := NewWith(Config{Store: st2, Cache: c2})
	if err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	var warm MineResponse[ImplicationWire]
	getJSON(t, ts2.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &warm)
	if warm.Source != "cache" {
		t.Fatalf("post-restart mine source = %q, want cache", warm.Source)
	}
	if fmt.Sprint(warm.Rules) != fmt.Sprint(cold.Rules) {
		t.Fatalf("post-restart cached rules differ")
	}
}

// TestPutOverwriteNeverServesStale: overwriting a dataset with
// different content must mine the new content, even though the old
// (dataset, params) pair is sitting in the cache.
func TestPutOverwriteNeverServesStale(t *testing.T) {
	_, ts := cachedTestServer(t)
	doPut(t, ts.URL, "d", "a b\na b\na b\n")
	var v1 MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &v1)
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &v1)
	if v1.Source != "cache" {
		t.Fatalf("priming mine source = %q", v1.Source)
	}

	// Overwrite with disjoint content under the same name and params.
	doPut(t, ts.URL, "d", "x y\nx z\ny z\n")
	var v2 MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &v2)
	if v2.Source == "cache" {
		t.Fatal("overwritten dataset served from the old cache entry")
	}
	for _, r := range v2.Rules {
		if r.From == "a" || r.From == "b" || r.To == "a" || r.To == "b" {
			t.Fatalf("stale rule from the old content: %+v", r)
		}
	}
	// And re-uploading the original content gets the original cache
	// entry back — content addressing, not name addressing.
	doPut(t, ts.URL, "d", "a b\na b\na b\n")
	var v3 MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &v3)
	if v3.Source != "cache" {
		t.Fatalf("re-uploaded original content not served from cache (source %q)", v3.Source)
	}
}

// TestDeleteEndpoint: DELETE removes the dataset from serving and the
// store; re-uploading different content under the same name mines
// fresh.
func TestDeleteEndpoint(t *testing.T) {
	s, ts := cachedTestServer(t)
	doPut(t, ts.URL, "d", "a b\na b\n")
	var mr MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &mr)

	if resp := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/d", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/datasets/d", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusNotFound, nil)
	if _, ok := s.st.Get("d"); ok {
		t.Fatal("DELETE left the dataset in the store")
	}
	if resp := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/d", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE: %d, want 404", resp.StatusCode)
	}

	// Same name, different content: must not resurrect old rules.
	doPut(t, ts.URL, "d", "p q\np q\n")
	var fresh MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &fresh)
	for _, r := range fresh.Rules {
		if r.From == "a" || r.To == "a" {
			t.Fatalf("deleted dataset's rule resurrected: %+v", r)
		}
	}
}

// TestAppendIncrementalParity: POST rows grows the dataset; the next
// mine derives from the dataset's miss counters (source=incremental)
// and must equal a from-scratch mine of the same grown content on a
// cacheless server.
func TestAppendIncrementalParity(t *testing.T) {
	_, ts := cachedTestServer(t)
	doPut(t, ts.URL, "d", basketBody)
	// The first mine caches rules; the append builds the miss counters
	// from the grown matrix, since the PUT dataset holds none.
	var cold MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &cold)

	appendBody := "bread butter jam\nbread tea\nscone butter\nscone jam butter\n"
	resp := doAppend(t, ts.URL, "d", appendBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST rows: %d, want 200", resp.StatusCode)
	}
	var inf DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/d", http.StatusOK, &inf)
	if inf.Rows != 14 {
		t.Fatalf("rows after append = %d, want 14", inf.Rows)
	}

	inc0 := obs.Default.CounterVec("dmc_incremental_mines_total", "", "pipeline").With("imp").Value()
	var grown MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &grown)
	if grown.Source != "incremental" {
		t.Fatalf("post-append mine source = %q, want incremental", grown.Source)
	}
	if d := obs.Default.CounterVec("dmc_incremental_mines_total", "", "pipeline").With("imp").Value() - inc0; d != 1 {
		t.Fatalf("dmc_incremental_mines_total delta = %d, want 1", d)
	}
	// And the repeat comes from cache.
	var again MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &again)
	if again.Source != "cache" {
		t.Fatalf("repeat post-append mine source = %q, want cache", again.Source)
	}

	// Parity: a cacheless server mining the same grown content from
	// scratch must produce the identical rule set.
	ref := New()
	ref.Add("d", mustParseBaskets(t, basketBody+appendBody))
	tsRef := httptest.NewServer(ref.Handler())
	t.Cleanup(tsRef.Close)
	var want MineResponse[ImplicationWire]
	getJSON(t, tsRef.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &want)
	if grown.Total != want.Total {
		t.Fatalf("incremental mine: %d rules, full re-mine: %d", grown.Total, want.Total)
	}
	rulesOf := func(rs []ImplicationWire) map[string]ImplicationWire {
		out := make(map[string]ImplicationWire, len(rs))
		for _, r := range rs {
			out[r.From+"=>"+r.To] = r
		}
		return out
	}
	g, w := rulesOf(grown.Rules), rulesOf(want.Rules)
	for k, wr := range w {
		if gr, ok := g[k]; !ok || gr != wr {
			t.Fatalf("rule %s: incremental %+v, full %+v", k, g[k], wr)
		}
	}

	// Similarities ride the same counters.
	var gs MineResponse[SimilarityWire]
	getJSON(t, ts.URL+"/v1/datasets/d/similarities?threshold=60", http.StatusOK, &gs)
	if gs.Source != "incremental" {
		t.Fatalf("post-append sim source = %q, want incremental", gs.Source)
	}
	var ws MineResponse[SimilarityWire]
	getJSON(t, tsRef.URL+"/v1/datasets/d/similarities?threshold=60", http.StatusOK, &ws)
	if fmt.Sprint(gs.Rules) != fmt.Sprint(ws.Rules) {
		t.Fatalf("sim parity:\nincremental %v\nfull        %v", gs.Rules, ws.Rules)
	}
}

// TestAppendChainResumesSnapshot: the second append folds into the
// counters the first one built (incremental=true on the wire) instead
// of rebuilding from scratch.
func TestAppendChainResumesSnapshot(t *testing.T) {
	_, ts := cachedTestServer(t)
	doPut(t, ts.URL, "d", "a b\na b\n")
	r1 := doAppendJSON(t, ts.URL, "d", "a c\n")
	if r1.Incremental {
		t.Fatal("first append claims folded counters; none existed")
	}
	r2 := doAppendJSON(t, ts.URL, "d", "b c\na b c\n")
	if !r2.Incremental {
		t.Fatal("second append rebuilt instead of folding into the counters")
	}
	if r2.Rows != 5 || r2.Appended != 2 {
		t.Fatalf("append response = %+v", r2)
	}
}

// doAppendJSON posts basket lines and decodes the AppendResponse.
func doAppendJSON(t *testing.T, base, name, body string) AppendResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/datasets/"+url.PathEscape(name)+"/rows", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST rows: %d, want 200", resp.StatusCode)
	}
	var v AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAppendValidation: appends to unknown, file-backed, or empty
// bodies fail cleanly.
func TestAppendValidation(t *testing.T) {
	st := openTestStore(t, t.TempDir(), store.Options{})
	c := openTestCache(t, t.TempDir())
	s := NewWith(Config{Store: st, Cache: c, StreamMinBytes: 1}) // everything streams
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp := doAppend(t, ts.URL, "nope", "a b\n"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: %d, want 404", resp.StatusCode)
	}
	doPut(t, ts.URL, "streamed", "a b\na b\n")
	if resp := doAppend(t, ts.URL, "streamed", "a b\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("append to file-backed dataset: %d, want 400", resp.StatusCode)
	}

	s2, ts2 := cachedTestServer(t)
	_ = s2
	doPut(t, ts2.URL, "d", "a b\n")
	if resp := doAppend(t, ts2.URL, "d", "# only a comment\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append: %d, want 400", resp.StatusCode)
	}
}

// TestAppendWidthLimit: an append to an unlabeled dataset may widen it
// by at most its count of ones. The 11-byte body "0 50000000\n" asks for
// 50 million columns: it gets 400, leaves the dataset as it was, and
// allocates nothing sized by that width (one 8-byte counter per column
// alone would be 400 MB).
func TestAppendWidthLimit(t *testing.T) {
	s, ts := cachedTestServer(t)
	s.Add("u", matrix.FromRows(3, [][]matrix.Col{{0, 1}, {1, 2}, {0, 2}}))
	var before, after DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/u", http.StatusOK, &before)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	resp := doAppend(t, ts.URL, "u", "0 50000000\n")
	runtime.ReadMemStats(&ms1)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wide append: %d, want 400", resp.StatusCode)
	}
	if d := ms1.TotalAlloc - ms0.TotalAlloc; d > 32<<20 {
		t.Fatalf("rejected append allocated %d bytes", d)
	}
	getJSON(t, ts.URL+"/v1/datasets/u", http.StatusOK, &after)
	if after != before {
		t.Fatalf("dataset after a rejected append = %+v, want %+v", after, before)
	}

	// Widening by up to the batch's ones is still an append.
	if r := doAppendJSON(t, ts.URL, "u", "2 4\n"); r.Rows != 4 || r.Cols != 5 {
		t.Fatalf("append within the limit = %+v, want 4 rows x 5 cols", r)
	}
}

// TestAppendDurable: appended rows survive a restart — each grown blob
// was committed before its append was acknowledged. After a chain of
// appends (new columns, an empty row) the recovered dataset has the
// resident one's content address and info, every mine returns the same
// rules, and the ones count the append path derives without a row walk
// — on the wire and in the store entry — is the final matrix's. The
// restarted server has a fresh cache, so its mines scan the recovered
// rows. The miss counters are not durable: the first append after the
// restart builds them again (incremental: false), the next folds into
// them, and the mines after each equal a fresh server's.
func TestAppendDurable(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	st := openTestStore(t, storeDir, store.Options{})
	c := openTestCache(t, cacheDir)
	s := NewWith(Config{Store: st, Cache: c})
	ts := httptest.NewServer(s.Handler())
	doPut(t, ts.URL, "d", basketBody)
	body := basketBody
	for _, batch := range []string{"bread butter scone\ncream scone\n", "jam tea\n\nbread cream jam\n", "honey\nbread butter\n"} {
		doAppendJSON(t, ts.URL, "d", batch)
		body += batch
	}
	d, _ := s.get("d")
	var inf DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/d", http.StatusOK, &inf)
	if inf.Rows != 17 || inf.Ones != d.m.NumOnes() {
		t.Fatalf("info after appends = %+v, want 17 rows and %d ones", inf, d.m.NumOnes())
	}
	before := mineEvery(t, ts.URL)
	ts.Close()
	st.Close()
	c.Close()

	st2 := openTestStore(t, storeDir, store.Options{})
	if e, _ := st2.Get("d"); e.Hash != d.hash || e.Ones != d.m.NumOnes() {
		t.Fatalf("reopened entry = %+v, want hash %s and %d ones", e, d.hash, d.m.NumOnes())
	}
	s2 := NewWith(Config{Store: st2, Cache: openTestCache(t, t.TempDir())})
	if err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	d2, _ := s2.get("d")
	if d2.hash != d.hash || d2.info != inf {
		t.Fatalf("recovered dataset %s %+v, want %s %+v", d2.hash, d2.info, d.hash, inf)
	}
	for q, rs := range before {
		var r minedReply
		getJSON(t, ts2.URL+"/v1/datasets/d/"+q, http.StatusOK, &r)
		if r.Source != "" {
			t.Fatalf("%s after the restart: source %q, want a scan of the recovered rows", q, r.Source)
		}
		if string(r.Rules) != rs {
			t.Fatalf("%s after the restart differs:\n%s\nbefore:\n%s", q, r.Rules, rs)
		}
	}

	for i, batch := range []string{"scone jam\n", "bread honey tea\n"} {
		body += batch
		if r := doAppendJSON(t, ts2.URL, "d", batch); r.Incremental != (i > 0) {
			t.Fatalf("append %d after the restart: incremental %v, want %v", i, r.Incremental, i > 0)
		}
		if d, _ := s2.get("d"); d.inc == nil {
			t.Fatalf("append %d after the restart left no counters", i)
		}
		ref := New()
		ref.Add("d", mustParseBaskets(t, body))
		tsRef := httptest.NewServer(ref.Handler())
		got, want := mineEvery(t, ts2.URL), mineEvery(t, tsRef.URL)
		tsRef.Close()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mines after append %d after the restart differ from a fresh server's:\n%v\nfresh:\n%v", i, got, want)
		}
	}
}

// mineEvery mines dataset d for both families at several thresholds
// and returns each rule list by query.
func mineEvery(t *testing.T, base string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, q := range []string{"implications?threshold=60", "implications?threshold=85", "similarities?threshold=40", "similarities?threshold=70"} {
		var r minedReply
		getJSON(t, base+"/v1/datasets/d/"+q, http.StatusOK, &r)
		if r.Total == 0 {
			t.Fatalf("%s mined no rules; the comparison is vacuous", q)
		}
		out[q] = string(r.Rules)
	}
	return out
}

// TestAppendOverCorruptBlob: damage to the live blob between two
// appends costs the second append its splice, not its correctness. It
// succeeds, counts on dmc_store_blob_mismatches_total, and the dataset
// recovered from the store equals the resident one.
func TestAppendOverCorruptBlob(t *testing.T) {
	storeDir := t.TempDir()
	st := openTestStore(t, storeDir, store.Options{})
	s := NewWith(Config{Store: st, Cache: openTestCache(t, t.TempDir())})
	ts := httptest.NewServer(s.Handler())
	doPut(t, ts.URL, "d", basketBody)
	doAppendJSON(t, ts.URL, "d", "bread scone\n")
	e, _ := st.Get("d")
	blob, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if err := os.WriteFile(e.Path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	mismatches := obs.Default.Counter("dmc_store_blob_mismatches_total", "").Value()
	doAppendJSON(t, ts.URL, "d", "tea scone cream\nbread\n")
	if d := obs.Default.Counter("dmc_store_blob_mismatches_total", "").Value() - mismatches; d != 1 {
		t.Fatalf("dmc_store_blob_mismatches_total moved by %d, want 1", d)
	}
	d, _ := s.get("d")
	resident := mineEvery(t, ts.URL)
	ts.Close()
	st.Close()

	s2 := NewWith(Config{Store: openTestStore(t, storeDir, store.Options{})})
	if err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	d2, _ := s2.get("d")
	want, _ := matrix.EncodeBinary(d.m)
	got, _ := matrix.EncodeBinary(d2.m)
	if d2.hash != d.hash || !bytes.Equal(got, want) || d2.info != d.info {
		t.Fatalf("recovered dataset %s %+v differs from the resident %s %+v", d2.hash, d2.info, d.hash, d.info)
	}
	if recovered := mineEvery(t, ts2.URL); fmt.Sprint(recovered) != fmt.Sprint(resident) {
		t.Fatalf("recovered mines differ:\n%v\nresident:\n%v", recovered, resident)
	}
}

// TestStoreRollbackNeverServesStaleRules: if a crash rolls the store
// back to an older version of a dataset (the newer PUT's commit was
// lost) while the cache — a separate directory, possibly on separate
// storage — still holds the newer content's rule sets, recovery must
// serve the OLD content's rules. Content addressing makes this
// structural: the recovered dataset re-keys every lookup to the old
// hash.
func TestStoreRollbackNeverServesStaleRules(t *testing.T) {
	storeDir, cacheDir := t.TempDir(), t.TempDir()
	backup := t.TempDir()

	open := func() (*store.Store, *cache.Cache, *httptest.Server) {
		st := openTestStore(t, storeDir, store.Options{})
		c := openTestCache(t, cacheDir)
		s := NewWith(Config{Store: st, Cache: c})
		if err := s.LoadStore(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return st, c, ts
	}
	st, c, ts := open()
	doPut(t, ts.URL, "d", "a b\na b\na b\n")
	var v1 MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &v1)
	ts.Close()
	st.Close()
	c.Close()
	copyDir(t, storeDir, backup)

	// Overwrite with v2, mine it (caching v2's rules), then roll the
	// store directory back to the v1 state — the crash-lost-commit
	// shape — while keeping the cache as-is.
	st, c, ts = open()
	doPut(t, ts.URL, "d", "x y\nx y\nx z\n")
	var v2 MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &v2)
	ts.Close()
	st.Close()
	c.Close()
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}
	copyDir(t, backup, storeDir)

	_, _, ts = open()
	t.Cleanup(ts.Close)
	var got MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=80", http.StatusOK, &got)
	if fmt.Sprint(got.Rules) != fmt.Sprint(v1.Rules) {
		t.Fatalf("rolled-back mine = %v, want v1 rules %v", got.Rules, v1.Rules)
	}
	for _, r := range got.Rules {
		if r.From == "x" || r.To == "x" {
			t.Fatalf("stale rule from the lost v2 content: %+v", r)
		}
	}
}

// copyDir recursively copies src into dst (which must exist).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCachelessServerUnchanged: with no cache configured the server
// mines every request and never sets source.
func TestCachelessServerUnchanged(t *testing.T) {
	ts := testServer(t)
	var a, b MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &a)
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &b)
	if a.Source != "" || b.Source != "" {
		t.Fatalf("cacheless mines set source: %q, %q", a.Source, b.Source)
	}
	if resp := doAppend(t, ts.URL, "baskets", "bread tea\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cacheless append: %d, want 200 (append works without cache or store)", resp.StatusCode)
	}
}

// TestAppendTenantRules: an append is a PUT of the grown dataset as far
// as tenancy goes — it must fit the tenant's byte quota, it must land
// in the requester's own dataset even when the name changed hands while
// the append waited for its turn, and a durable dataset's quota bill is
// its committed blob size.
func TestAppendTenantRules(t *testing.T) {
	big := strings.Repeat("item0 item1 item2 item3 item4 item5 item6 item7\n", 40)
	for _, tc := range []struct {
		name       string
		cfg        func(t *testing.T) Config
		queued     func(t *testing.T, base string) // runs while the append waits for its turn
		body       string
		wantStatus int
		wantRows   int // rows of "d" as seen by wantOwner afterwards
		wantOwner  string
	}{
		{
			name:       "past quota",
			cfg:        func(*testing.T) Config { return Config{TenantQuota: TenantQuota{MaxBytes: 1 << 10}} },
			body:       big,
			wantStatus: http.StatusTooManyRequests,
			wantRows:   2, wantOwner: "alice",
		},
		{
			name:       "within quota",
			cfg:        func(*testing.T) Config { return Config{TenantQuota: TenantQuota{MaxBytes: 1 << 10}} },
			body:       "a b\n",
			wantStatus: http.StatusOK,
			wantRows:   3, wantOwner: "alice",
		},
		{
			name: "swapped owner",
			cfg:  func(*testing.T) Config { return Config{} },
			queued: func(t *testing.T, base string) {
				for _, step := range []struct {
					method, tenant, body string
					want                 int
				}{
					{http.MethodDelete, "alice", "", http.StatusNoContent},
					{http.MethodPut, "bob", "x y\nx y\nx y\nx y\n", http.StatusCreated},
				} {
					req, _ := http.NewRequest(step.method, base+"/v1/datasets/d", strings.NewReader(step.body))
					req.Header.Set(tenantHeader, step.tenant)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("%s as %s: %v", step.method, step.tenant, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != step.want {
						t.Errorf("%s as %s: status %d, want %d", step.method, step.tenant, resp.StatusCode, step.want)
					}
				}
			},
			body:       "a b\n",
			wantStatus: http.StatusConflict,
			wantRows:   4, wantOwner: "bob",
		},
		{
			name: "durable",
			cfg: func(t *testing.T) Config {
				return Config{Store: openTestStore(t, t.TempDir(), store.Options{}), TenantQuota: TenantQuota{MaxBytes: 1 << 20}}
			},
			body:       "a b c\n",
			wantStatus: http.StatusOK,
			wantRows:   3, wantOwner: "alice",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			cfg.Registry = obs.NewRegistry() // quota sheds must not leak into other tests' counters
			s := NewWith(cfg)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			doJSON(t, http.MethodPut, ts.URL+"/v1/datasets/d", "alice", "a b\na b\n", http.StatusCreated, nil)
			if tc.queued != nil {
				s.appendQueued = func() { tc.queued(t, ts.URL) }
			}
			resp := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/rows", "alice", tc.body, tc.wantStatus, nil)
			if tc.wantStatus == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Fatal("quota shed has no Retry-After")
			}
			var inf DatasetInfo
			doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/d", tc.wantOwner, "", http.StatusOK, &inf)
			if inf.Rows != tc.wantRows {
				t.Fatalf("rows of %s's d = %d, want %d", tc.wantOwner, inf.Rows, tc.wantRows)
			}
			d, _ := s.get("d")
			want := core.Footprint(d.m.NumOnes(), d.m.NumCols())
			if s.st != nil {
				e, _ := s.st.Get("d")
				want = e.Size
			}
			if d.inc != nil { // an append's counters are billed with the dataset
				want += int64(d.inc.Pairs()) * core.PairBytes
			}
			if d.bytes != want {
				t.Fatalf("quota bill = %d bytes, want %d", d.bytes, want)
			}
		})
	}
}

// TestCachelessAppendParity: counters are decided by the input, not by
// the cache. Without a cache the first append builds miss counters
// (incremental: false) and a second one folds into them (true); every
// mine of the grown dataset, twice over, is a derivation from them
// whose bytes equal a fresh server's. No hash is computed.
func TestCachelessAppendParity(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	doPut(t, ts.URL, "d", basketBody)
	body := basketBody
	for i, batch := range []string{
		"bread butter jam\nbread tea\nscone butter\nscone jam butter\n",
		"tea scone\nbread butter scone\n",
	} {
		body += batch
		if r := doAppendJSON(t, ts.URL, "d", batch); r.Incremental != (i > 0) || r.Rows != strings.Count(body, "\n") {
			t.Fatalf("append %d response = %+v", i, r)
		}
		if d, _ := s.get("d"); d.hash != "" || d.inc == nil {
			t.Fatalf("append %d: hash %q, counters held %v", i, d.hash, d.inc != nil)
		}
		ref := New()
		ref.Add("d", mustParseBaskets(t, body))
		tsRef := httptest.NewServer(ref.Handler())
		for _, q := range []string{"implications?threshold=80", "similarities?threshold=60", "implications?threshold=80"} {
			var got, want minedReply
			getJSON(t, ts.URL+"/v1/datasets/d/"+q, http.StatusOK, &got)
			getJSON(t, tsRef.URL+"/v1/datasets/d/"+q, http.StatusOK, &want)
			if got.Source != "incremental" || got.Total != want.Total || string(got.Rules) != string(want.Rules) {
				t.Fatalf("append %d, %s on a cacheless server:\n%+v\nfresh server:\n%+v", i, q, got, want)
			}
		}
		tsRef.Close()
	}
}
