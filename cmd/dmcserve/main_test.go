package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dmc/internal/matrix"
	"dmc/internal/server"
)

func TestSetupAndServe(t *testing.T) {
	dir := t.TempDir()
	m := matrix.FromRows(2, [][]matrix.Col{{0, 1}, {0, 1}, {0}})
	if err := matrix.Save(filepath.Join(dir, "tiny.dmb"), m); err != nil {
		t.Fatal(err)
	}
	s, ln, _, err := setup(server.Config{EnablePprof: true}, setupConfig{addr: "localhost:0", dataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0]["name"] != "tiny" {
		t.Fatalf("datasets = %v", list)
	}

	// The observability surface is up: metrics and pprof.
	mresp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "dmc_http_requests_total") {
		t.Fatalf("metrics missing request counters:\n%.400s", body)
	}
	presp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", presp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on context cancel")
	}
}

func TestSetupErrors(t *testing.T) {
	if _, _, _, err := setup(server.Config{}, setupConfig{addr: "localhost:0", dataDir: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Error("missing data dir accepted")
	}
	if _, _, _, err := setup(server.Config{}, setupConfig{addr: "256.0.0.1:99999"}); err == nil {
		t.Error("bad address accepted")
	}
}

// TestDataDirRecovery is the binary-level durability check: a dataset
// uploaded to a -data-dir server is served again, with identical mining
// output, after the whole server (and store) is torn down and set up
// fresh over the same directory.
func TestDataDirRecovery(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "dmcdata")

	runServer := func() (base string, shutdown func()) {
		s, ln, closer, err := setup(server.Config{}, setupConfig{addr: "localhost:0", storeDir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		runErr := make(chan error, 1)
		go func() { runErr <- s.Run(ctx, ln) }()
		return "http://" + ln.Addr().String(), func() {
			cancel()
			select {
			case err := <-runErr:
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not stop")
			}
			closer.Close()
		}
	}

	mine := func(base string) string {
		resp, err := http.Get(base + "/v1/datasets/groceries/implications?threshold=60")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine: status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// Wall time is the one field two correct replies may differ in.
		return regexp.MustCompile(`"elapsed_ms": \d+`).ReplaceAllString(string(body), `"elapsed_ms": 0`)
	}

	base, shutdown := runServer()
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/datasets/groceries",
		strings.NewReader("bread butter jam\nbread butter\nbread butter coffee\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}
	before := mine(base)
	shutdown()

	base2, shutdown2 := runServer()
	defer shutdown2()
	// Readiness came up only after the catalog was recovered.
	rresp, err := http.Get(base2 + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: %d", rresp.StatusCode)
	}
	if after := mine(base2); after != before {
		t.Fatalf("recovered mine differs:\n-- before --\n%s\n-- after --\n%s", before, after)
	}
}
