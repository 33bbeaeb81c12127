package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/server"
)

const (
	jobsCrashDirEnv  = "DMCSERVE_JOBS_CRASH_DIR"
	jobsCrashAddrEnv = "DMCSERVE_JOBS_CRASH_ADDRFILE"
)

// TestHelperJobsServe is not a test: TestJobsCrashResume re-execs the
// binary to run it as the victim server. It boots dmcserve with a
// durable store and the async job subsystem over the directory the
// parent provides, publishes its listen address through a file, and
// serves until the parent SIGKILLs it.
func TestHelperJobsServe(t *testing.T) {
	dir := os.Getenv(jobsCrashDirEnv)
	if dir == "" {
		t.Skip("helper process for TestJobsCrashResume")
	}
	cfg := server.Config{
		StreamMinBytes: 1, // every durable dataset serves file-backed -> durable kept partitions
		JobWorkers:     1,
	}
	s, ln, closer, err := setup(cfg, setupConfig{
		addr:     "127.0.0.1:0",
		storeDir: filepath.Join(dir, "store"),
		jobsDir:  filepath.Join(dir, "jobs"),
	})
	if err != nil {
		t.Fatalf("victim setup: %v", err)
	}
	defer closer.Close()
	addrFile := os.Getenv(jobsCrashAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(t.Context(), ln); err != nil {
		t.Fatalf("victim run: %v", err)
	}
}

// crashDataset is the mine input: big enough that the counting passes
// run long after the kept partition commits, so the parent's SIGKILL
// reliably lands mid-mine with a resumable partition on disk.
func crashDataset() string {
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	for i := 0; i < 60000; i++ {
		sb.WriteString("anchor")
		for j := 0; j < 7; j++ {
			fmt.Fprintf(&sb, " c%02d", rng.Intn(80))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// crashBaseline mines the dataset in-process and renders the canonical
// payload — what the resumed job must reproduce byte for byte.
func crashBaseline(t *testing.T, text string, thresholdPct int) []byte {
	t.Helper()
	m, err := matrix.ReadBaskets(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := core.DMCImp(m, core.FromPercent(thresholdPct), core.Options{})
	rules.SortImplications(rs)
	var buf bytes.Buffer
	if err := rules.WriteImplications(&buf, rs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("baseline mined zero bytes; the identity check is vacuous")
	}
	return buf.Bytes()
}

// startVictim launches the helper server over dir and waits for its
// address. kill sends SIGKILL and reaps; stop is a clean shutdown.
func startVictim(t *testing.T, dir, addrFile string) (base string, kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperJobsServe$")
	cmd.Env = append(os.Environ(), jobsCrashDirEnv+"="+dir, jobsCrashAddrEnv+"="+addrFile)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil {
			base = "http://" + string(raw)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// TestJobsCrashResume is the acceptance drill: SIGKILL the server while
// an async mine job is mid-run (the dataset's durable kept partition
// already committed), restart over the same directories, and require
// that journal replay re-admits the job, the mine resumes the kept
// partition instead of partitioning afresh, and the resumed result is
// byte-identical to an uninterrupted in-process mine.
func TestJobsCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash drill")
	}
	dir := t.TempDir()
	text := crashDataset()
	const thresholdPct = 70
	want := crashBaseline(t, text, thresholdPct)

	base, kill := startVictim(t, dir, filepath.Join(dir, "addr1"))

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/datasets/big", strings.NewReader(text))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT dataset: status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"dataset":"big","pipeline":"imp","threshold":%d,"workers":1}`, thresholdPct)))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status %d, job %+v", resp.StatusCode, job)
	}

	// The stored blob's kept partition commits MANIFEST.json only after
	// the whole partition pass is durably on disk — its appearance means
	// a valid checkpoint exists and the counting passes are running.
	// Kill there.
	manifest := filepath.Join(dir, "store", "kept", "*", "MANIFEST.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if found, _ := filepath.Glob(manifest); len(found) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint manifest never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	kill()

	// Reboot over the same directories: replay must re-admit the job.
	base2, _ := startVictim(t, dir, filepath.Join(dir, "addr2"))
	var got struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		Result   string `json:"result"`
		Attempts int    `json:"attempts"`
		Resumed  bool   `json:"resumed"`
		Error    string `json:"error"`
	}
	for {
		resp, err := http.Get(base2 + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("job %s lost across the crash: status %d", job.ID, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.State == "done" {
			break
		}
		if got.State == "failed" || got.State == "cancelled" {
			t.Fatalf("resumed job ended %s: %s", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished (state %s)", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Attempts < 2 {
		t.Fatalf("job finished with %d attempts; the kill landed after completion — grow crashDataset", got.Attempts)
	}
	if !got.Resumed {
		t.Fatal("resumed session re-partitioned instead of picking up the checkpoint")
	}

	resp, err = http.Get(base2 + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d\n%s", resp.StatusCode, payload)
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("resumed result differs from uninterrupted mine: got %d bytes, want %d", len(payload), len(want))
	}
}
