package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/obs"
)

// Older releases had an opt-in LSH prefilter. The exact rule set was
// always a valid answer to a prefiltered request, so clients that still
// send &prefilter= get it: the parameter is ignored like any unknown
// query parameter, on both families, resident and streamed alike.
func TestSimPrefilterParam(t *testing.T) {
	dir := t.TempDir()
	m := matrix.FromRows(6, [][]matrix.Col{
		{0, 1, 2}, {0, 1}, {0, 1, 4}, {2, 3}, {0, 1, 2}, {4, 5}, {0, 1},
	})
	if err := matrix.Save(filepath.Join(dir, "big.dmb"), m); err != nil {
		t.Fatal(err)
	}
	s := NewWith(Config{StreamMinBytes: 1, Registry: obs.NewRegistry()})
	if err := s.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Add("mem", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for _, ds := range []string{"mem", "big"} {
		for _, q := range []string{"implications?threshold=60", "similarities?threshold=60", "similarities?threshold=60&workers=2"} {
			base := ts.URL + "/v1/datasets/" + ds + "/" + q
			exact := mineRules(t, base)
			if string(exact) == "null" {
				t.Fatalf("%s %s: no rules", ds, q)
			}
			for _, pf := range []string{"&prefilter=1", "&prefilter=true", "&prefilter=maybe"} {
				if got := mineRules(t, base+pf); !bytes.Equal(got, exact) {
					t.Fatalf("%s %s%s: rules differ from the plain mine:\n%s\nvs\n%s", ds, q, pf, got, exact)
				}
			}
		}
	}
}

// A request still carrying &prefilter=1 shares the plain request's
// derivation from the miss counters and its cache entry.
func TestSimPrefilterCacheAndSnapshot(t *testing.T) {
	_, ts := cachedTestServer(t)
	doReq(t, http.MethodPut, ts.URL+"/v1/datasets/d", "a b\na b c\nc d\na b\n")
	doAppend(t, ts.URL, "d", "a b\nc d\n")

	var plain, pruned minedReply
	getJSON(t, ts.URL+"/v1/datasets/d/similarities?threshold=60&prefilter=1", http.StatusOK, &pruned)
	if pruned.Source != "incremental" {
		t.Fatalf("prefiltered mine after append: source %q, want incremental", pruned.Source)
	}
	getJSON(t, ts.URL+"/v1/datasets/d/similarities?threshold=60", http.StatusOK, &plain)
	if plain.Source != "cache" {
		t.Fatalf("plain mine after a prefiltered one: source %q, want cache", plain.Source)
	}
	if !bytes.Equal(plain.Rules, pruned.Rules) {
		t.Fatalf("plain rules differ from prefiltered:\n%s\nvs\n%s", plain.Rules, pruned.Rules)
	}
}

// legacyJournal writes a JOBS journal in the on-disk framing holding
// the given raw job records.
func legacyJournal(t *testing.T, dir string, records ...string) {
	t.Helper()
	buf := []byte("DMCJOB01")
	for _, rec := range records {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(rec), crc32.MakeTable(crc32.Castagnoli)))
		buf = append(append(buf, hdr[:]...), rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, "JOBS"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// jobResult fetches a finished job's result payload.
func jobResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: status %d\n%s", id, resp.StatusCode, payload)
	}
	return payload
}

// A job journaled by an older release with "prefilter":true replays
// (the journal decodes leniently) and finishes as the exact sim job,
// byte-identical to the same job without the field; a new submission
// carrying the field is refused like any unknown field.
func TestPrefilterJobUpgrade(t *testing.T) {
	dir := t.TempDir()
	legacyJournal(t, dir, `{"id":"legacy","tenant":"default","params":{"dataset":"baskets","pipeline":"sim","threshold":50,"prefilter":true},"state":"running","created_ns":1}`)
	s := NewWith(Config{})
	m, err := matrix.ReadBaskets(strings.NewReader(basketBody))
	if err != nil {
		t.Fatal(err)
	}
	s.Add("baskets", m)
	if err := s.OpenJobs(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseJobs() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if done := waitJobState(t, ts.URL, "", "legacy", jobs.StateDone); done.Rules == 0 {
		t.Fatalf("legacy job mined no rules: %+v", done)
	}
	var fresh jobs.Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"sim","threshold":50}`, http.StatusAccepted, &fresh)
	waitJobState(t, ts.URL, "", fresh.ID, jobs.StateDone)
	if legacy, exact := jobResult(t, ts.URL, "legacy"), jobResult(t, ts.URL, fresh.ID); !bytes.Equal(legacy, exact) {
		t.Fatalf("legacy prefiltered job payload differs from the exact job's:\n%s\nvs\n%s", legacy, exact)
	}

	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		`{"dataset":"baskets","pipeline":"sim","threshold":50,"prefilter":true}`, http.StatusBadRequest, nil)
}
