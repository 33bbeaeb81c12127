package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmc/internal/matrix"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := New()
	m, err := matrix.ReadBaskets(strings.NewReader(
		"bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\ncoffee tea\nbread butter tea\njam bread butter\ncoffee\nbread butter jam coffee\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("baskets", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var got map[string]string
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &got)
	if got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
}

func TestListAndDescribe(t *testing.T) {
	ts := testServer(t)
	var list []DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets", http.StatusOK, &list)
	if len(list) != 1 || list[0].Name != "baskets" || !list[0].Labeled {
		t.Fatalf("list = %+v", list)
	}
	var one DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/baskets", http.StatusOK, &one)
	if one.Rows != 10 || one.Cols != 5 {
		t.Fatalf("describe = %+v", one)
	}
	getJSON(t, ts.URL+"/v1/datasets/nope", http.StatusNotFound, nil)
}

func TestMineImplicationsEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &resp)
	if resp.Total == 0 || len(resp.Rules) != resp.Total {
		t.Fatalf("resp = %+v", resp)
	}
	// The quickstart's known rule: butter => bread at 100%.
	found := false
	for _, r := range resp.Rules {
		if r.From == "butter" && r.To == "bread" && r.Confidence == 1.0 {
			found = true
		}
		if r.Confidence < 0.8 {
			t.Fatalf("rule below threshold: %+v", r)
		}
	}
	if !found {
		t.Fatalf("butter => bread missing: %+v", resp.Rules)
	}
	// Limits truncate.
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80&limit=1", http.StatusOK, &resp)
	if len(resp.Rules) != 1 || !resp.Truncated {
		t.Fatalf("limit not applied: %+v", resp)
	}
}

func TestMineSimilaritiesEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp MineResponse[SimilarityWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/similarities?threshold=60", http.StatusOK, &resp)
	// Pairs come back rank-ordered: the rarer column (butter, 7 ones)
	// first, then bread (8 ones).
	if resp.Total != 1 || resp.Rules[0].A != "butter" || resp.Rules[0].B != "bread" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Rules[0].Similarity != 0.875 {
		t.Fatalf("similarity = %v, want 7/8", resp.Rules[0].Similarity)
	}
}

func TestExpandEndpoint(t *testing.T) {
	ts := testServer(t)
	var groups []ExpandGroupWire
	getJSON(t, ts.URL+"/v1/datasets/baskets/expand?keyword=jam&threshold=80", http.StatusOK, &groups)
	if len(groups) == 0 || groups[0].From != "jam" {
		t.Fatalf("groups = %+v", groups)
	}
	getJSON(t, ts.URL+"/v1/datasets/baskets/expand?keyword=caviar", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/datasets/baskets/expand", http.StatusBadRequest, nil)
}

func TestPutDataset(t *testing.T) {
	ts := testServer(t)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/mine", strings.NewReader("x y\ny z\nx y z\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	var one DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/mine", http.StatusOK, &one)
	if one.Rows != 3 || one.Cols != 3 {
		t.Fatalf("uploaded dataset = %+v", one)
	}
	// Empty upload rejected.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/empty", strings.NewReader("# nothing\n"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty PUT status %d", resp.StatusCode)
	}
}

func TestBadParams(t *testing.T) {
	ts := testServer(t)
	for _, q := range []string{
		"threshold=0", "threshold=101", "threshold=abc", "limit=0", "limit=x", "minsupport=x",
	} {
		getJSON(t, ts.URL+"/v1/datasets/baskets/implications?"+q, http.StatusBadRequest, nil)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	m := matrix.FromRows(2, [][]matrix.Col{{0, 1}, {0}})
	if err := matrix.Save(filepath.Join(dir, "alpha.dmb"), m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("skip me"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.get("alpha"); !ok {
		t.Fatal("alpha not loaded")
	}
	if _, ok := s.get("notes"); ok {
		t.Fatal("non-matrix file loaded")
	}
	if err := s.LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
	// A corrupt matrix file must fail the load.
	if err := os.WriteFile(filepath.Join(dir, "bad.dmb"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New().LoadDir(dir); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

// TestStreamedDataset covers the file-backed serving path: LoadDir with
// StreamMinBytes registers a big matrix file without loading it, mining
// endpoints stream it from disk (any worker count) and render rules
// byte-identical to an in-memory mine for both families, and expansion
// — which needs labels — is rejected with a 400.
func TestStreamedDataset(t *testing.T) {
	dir := t.TempDir()
	m := matrix.FromRows(6, [][]matrix.Col{
		{0, 1, 2}, {0, 1}, {0, 1, 4}, {2, 3}, {0, 1, 2}, {4, 5}, {0, 1},
	})
	if err := matrix.Save(filepath.Join(dir, "big.dmb"), m); err != nil {
		t.Fatal(err)
	}
	s := NewWith(Config{StreamMinBytes: 1})
	if err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Add("mem", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var list []DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets", http.StatusOK, &list)
	if len(list) != 2 {
		t.Fatalf("list = %+v", list)
	}
	var big DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets/big", http.StatusOK, &big)
	if !big.Streamed || big.Rows != m.NumRows() || big.Cols != m.NumCols() {
		t.Fatalf("big info = %+v", big)
	}

	for _, family := range []string{"implications", "similarities"} {
		for _, w := range []string{"1", "2"} {
			q := "/" + family + "?threshold=60&workers=" + w
			mem := mineRules(t, ts.URL+"/v1/datasets/mem"+q)
			streamed := mineRules(t, ts.URL+"/v1/datasets/big"+q)
			if string(mem) == "null" {
				t.Fatalf("%s: in-memory mine returned no rules", q)
			}
			if !bytes.Equal(streamed, mem) {
				t.Fatalf("%s: streamed rules differ from in-memory:\n%s\nvs\n%s", q, streamed, mem)
			}
		}
	}
	getJSON(t, ts.URL+"/v1/datasets/big/expand?keyword=c0", http.StatusBadRequest, nil)
}

// The workers parameter routes to the parallel pipeline, which must
// return the same rules; 0 means one worker per CPU, out-of-range
// values are rejected.
func TestMineWorkersParam(t *testing.T) {
	ts := testServer(t)
	var serial MineResponse[ImplicationWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80", http.StatusOK, &serial)
	for _, w := range []string{"0", "2", "8"} {
		var par MineResponse[ImplicationWire]
		getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=80&workers="+w, http.StatusOK, &par)
		if par.Total != serial.Total {
			t.Fatalf("workers=%s: %d rules, serial %d", w, par.Total, serial.Total)
		}
	}
	var sim MineResponse[SimilarityWire]
	getJSON(t, ts.URL+"/v1/datasets/baskets/similarities?threshold=60&workers=2", http.StatusOK, &sim)
	if sim.Total == 0 {
		t.Fatal("parallel similarity mine returned no rules")
	}
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?workers=-1", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?workers=129", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?workers=x", http.StatusBadRequest, nil)
}
