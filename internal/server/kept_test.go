package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/jobs"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
	"dmc/internal/stream"
)

// streamPartitions is the stream package's dmc_stream_partitions_total.
var streamPartitions = obs.Default.Counter("dmc_stream_partitions_total", "")

// keptMatrix is memoBaskets(seed) without its labels.
func keptMatrix(t *testing.T, seed int64) *matrix.Matrix {
	t.Helper()
	return unlabeled(mustParseBaskets(t, memoBaskets(seed)))
}

// unlabeled is m without its labels, so a resident server renders its
// columns as c<id>, as a file-backed one does.
func unlabeled(m *matrix.Matrix) *matrix.Matrix {
	rows := make([][]matrix.Col, m.NumRows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return matrix.FromRows(m.NumCols(), rows)
}

// saveAged writes m to path, in place when the file exists (same
// inode), and dates its mtime age ago; age 0 leaves it just written.
func saveAged(t *testing.T, path string, m *matrix.Matrix, age time.Duration) {
	t.Helper()
	var b bytes.Buffer
	write := matrix.WriteBinary
	if filepath.Ext(path) == matrix.ExtText {
		write = matrix.WriteText
	}
	err := write(&b, m)
	if err == nil {
		err = os.WriteFile(path, b.Bytes(), 0o644)
	}
	if err == nil && age > 0 {
		mt := time.Now().Add(-age)
		err = os.Chtimes(path, mt, mt)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// keptServer serves the file at path as dataset "d"; its kept
// partitions are removed at cleanup.
func keptServer(t *testing.T, cfg Config, path string) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	s := NewWith(cfg)
	t.Cleanup(s.kept.closeAll)
	if err := s.AddFile("d", path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// residentServer serves m resident as dataset "d".
func residentServer(t *testing.T, m *matrix.Matrix) *httptest.Server {
	t.Helper()
	s := NewWith(Config{Registry: obs.NewRegistry()})
	s.Add("d", m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// streamBody is the reply a server would render for query on dataset
// "d" from a fresh stream.Mine*Cfg of the file at path.
func streamBody(t *testing.T, path, query string, minSupport int) []byte {
	t.Helper()
	ep, arg, _ := strings.Cut(query, "?threshold=")
	th, err := strconv.Atoi(arg)
	if err != nil {
		t.Fatal(err)
	}
	o := core.Options{MinSupport: minSupport}
	cfg := stream.Config{Workers: 1, TmpDir: t.TempDir()}
	if ep == "implications" {
		return renderFresh(t, &impPipeline, path, th, o, cfg)
	}
	return renderFresh(t, &simPipeline, path, th, o, cfg)
}

func renderFresh[R, W any](t *testing.T, pl *pipeline[R, W], path string, th int, o core.Options, cfg stream.Config) []byte {
	t.Helper()
	rs, _, err := pl.file(path, core.FromPercent(th), o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.wireSort(rs)
	resp := MineResponse[W]{Dataset: "d", Threshold: th, Total: len(rs)}
	for _, r := range rs {
		resp.Rules = append(resp.Rules, pl.wire((&dataset{}).label, r))
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// TestKeptParity: a file-backed dataset's mines of the load benchmark's
// keys — each a memo miss on a server of its own, then all of them
// twice on one server, where all but each family's first are memo hits
// — reply byte for byte as a resident server over the same matrix does
// and as a fresh stream.Mine*Cfg of the file renders, at min support 0,
// which the memo serves, and 2, which it does not. The one server
// partitions the file once. A shard task on its warm partition bypasses
// the memo and matches a fresh sharded stream mine.
func TestKeptParity(t *testing.T) {
	m := keptMatrix(t, 1)
	path := filepath.Join(t.TempDir(), "d"+matrix.ExtBinary)
	saveAged(t, path, m, time.Hour)
	rts := residentServer(t, m)
	for _, ms := range []int{0, 2} {
		suffix := fmt.Sprintf("&minsupport=%d", ms)
		want := map[string][]byte{}
		for _, q := range benchKeys {
			want[q] = mineBody(t, rts.URL, "d", q+suffix)
			if fresh := streamBody(t, path, q, ms); !bytes.Equal(fresh, want[q]) {
				t.Fatalf("%s%s: a fresh stream mine differs from the resident reply\n got: %.400s\nwant: %.400s", q, suffix, fresh, want[q])
			}
			_, ts := keptServer(t, Config{}, path)
			if got := mineBody(t, ts.URL, "d", q+suffix); !bytes.Equal(got, want[q]) {
				t.Fatalf("%s%s, memo miss: reply differs\n got: %.400s\nwant: %.400s", q, suffix, got, want[q])
			}
		}
		s, ts := keptServer(t, Config{}, path)
		builds := streamPartitions.Value()
		for round := 0; round < 2; round++ {
			for _, q := range benchKeys {
				if got := mineBody(t, ts.URL, "d", q+suffix); !bytes.Equal(got, want[q]) {
					t.Fatalf("round %d, %s%s: reply differs\n got: %.400s\nwant: %.400s", round, q, suffix, got, want[q])
				}
			}
		}
		if n := streamPartitions.Value() - builds; n != 1 {
			t.Fatalf("minsupport %d: two cycles partitioned the file %d times, want once", ms, n)
		}
		for _, tc := range []struct {
			pipeline string
			keys     uint64
		}{{"imp", 8}, {"sim", 7}} {
			want100 := uint64(1)
			if ms > 1 {
				want100 = 2 * tc.keys
			}
			if n := phaseCount(s, tc.pipeline, "100"); n != want100 {
				t.Errorf("minsupport %d, %s: phase 100 ran %d times, want %d", ms, tc.pipeline, n, want100)
			}
		}
		if ms > 0 {
			continue
		}

		d, _ := s.get("d")
		shard := core.ShardRange{Lo: 0, Hi: m.NumCols() / 2}
		run := func(_ string, mine func(context.Context, *core.Hooks) (core.Stats, error)) bool {
			_, err := mine(context.Background(), s.hooks)
			if err != nil {
				t.Fatal(err)
			}
			return true
		}
		before := phaseCount(s, "imp", "100")
		got, _, _ := ladder(s, &s.imps, d, params{threshold: 70, workers: 1, shard: &shard}, run, s.streamCfg(1))
		fresh, _, err := stream.MineImplicationsCfg(path, core.FromPercent(70), core.Options{Shard: &shard}, stream.Config{Workers: 1, TmpDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if d := rules.DiffImplications(got, fresh); d != "" {
			t.Fatalf("shard task on a warm partition differs from a fresh sharded mine:\n%s", d)
		}
		if n := phaseCount(s, "imp", "100") - before; n != 1 {
			t.Fatalf("shard task ran phase 100 %d times, want once (the memo must not serve it)", n)
		}
	}
}

// TestKeptIdentity: an AddFile path's partition is reused while the
// file keeps the identity it had before the build read it, and only if
// that mtime was older than the racy margin. Rewrites in place at the
// same size, at another size, and at the same size inside the margin
// with the mtime put back (a same-tick rewrite, which the identity
// cannot see) are each partitioned again.
func TestKeptIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d"+matrix.ExtText)
	m1 := keptMatrix(t, 1)
	rows := make([][]matrix.Col, m1.NumRows())
	for i := range rows {
		// Swapping each column with its neighbour keeps every id's digit
		// count, so the text file keeps its size.
		for _, c := range m1.Row(i) {
			if int(c^1) < m1.NumCols() {
				c ^= 1
			}
			rows[i] = append(rows[i], c)
		}
		slices.Sort(rows[i])
	}
	m2 := matrix.FromRows(m1.NumCols(), rows)
	m3 := keptMatrix(t, 2)
	saveAged(t, path, m1, time.Hour)
	s, ts := keptServer(t, Config{}, path)
	const q = "implications?threshold=70"
	step := func(what string, m *matrix.Matrix, builds int64) {
		t.Helper()
		before, reuses := streamPartitions.Value(), s.kept.reuses.Value()
		if got, want := mineBody(t, ts.URL, "d", q), mineBody(t, residentServer(t, m).URL, "d", q); !bytes.Equal(got, want) {
			t.Fatalf("%s: reply differs from the file's content\n got: %.400s\nwant: %.400s", what, got, want)
		}
		if n := streamPartitions.Value() - before; n != builds {
			t.Fatalf("%s: %d partitions built, want %d", what, n, builds)
		}
		if n := s.kept.reuses.Value() - reuses; n != 1-builds {
			t.Fatalf("%s: %d reuses counted, want %d", what, n, 1-builds)
		}
	}
	step("first mine", m1, 1)
	step("unchanged file", m1, 0)

	size := fileSize(t, path)
	saveAged(t, path, m2, 30*time.Minute)
	if fileSize(t, path) != size {
		t.Fatal("the neighbour-swapped matrix changed the file's size")
	}
	step("rewrite at the same size", m2, 1)
	step("unchanged after the rewrite", m2, 0)
	saveAged(t, path, m3, 20*time.Minute)
	step("rewrite at another size", m3, 1)
	step("unchanged after the resize", m3, 0)

	saveAged(t, path, m1, 0)
	step("a just-written file", m1, 1)
	fresh, err := stream.Identify(path)
	if err != nil {
		t.Fatal(err)
	}
	saveAged(t, path, m2, 0)
	if err := os.Chtimes(path, fresh.ModTime(), fresh.ModTime()); err != nil {
		t.Fatal(err)
	}
	if now, _ := stream.Identify(path); !now.Same(fresh) {
		t.Fatal("the same-tick rewrite changed the file's identity")
	}
	step("a same-size rewrite in the same tick", m2, 1)
	if got := s.kept.bytes.Value(); got != 0 {
		t.Fatalf("builds inside the racy margin kept %d bytes", got)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// spillFDs counts this process's open files under dir; -1 when the
// platform cannot list them.
func spillFDs(dir string) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// waitIdle waits for every mine s runs, abandoned ones included, to end.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.metrics.inflight.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d mines still running", s.metrics.inflight.Value())
		}
	}
}

// TestKeptConcurrentMines: mines share one kept partition, each
// replaying it under its own context. The builder's request ending and
// neighbours' requests cancelled mid-flight leave every other reply
// exact, as do a DELETE and a re-registration of the dataset racing the
// mines (those reply exactly or 404): a re-AddFile of a file, or a
// re-PUT of a stored blob, whose durable partitions each build writes
// in a directory of its own. Once the registrations end, the scratch
// directory holds no spill directory, kept/ at most the last
// registration's durable partition, and no spill file is open.
func TestKeptConcurrentMines(t *testing.T) {
	for _, stored := range []bool{false, true} {
		t.Run(map[bool]string{false: "addfile", true: "stored"}[stored], func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, filepath.Join(dir, "store"), store.Options{})
			m := keptMatrix(t, 1)
			path := filepath.Join(dir, "d"+matrix.ExtBinary)
			saveAged(t, path, m, time.Hour)
			cfg := Config{Store: st, MaxConcurrentMines: 4, MaxQueueDepth: -1}
			if stored {
				cfg.StreamMinBytes = 1
			}
			s, ts := keptServer(t, cfg, path)
			register := func() error { return s.AddFile("d", path) }
			if stored {
				register = func() error {
					if resp := doPut(t, ts.URL, "d", memoBaskets(1)); resp.StatusCode != http.StatusCreated {
						return fmt.Errorf("PUT: status %d", resp.StatusCode)
					}
					return nil
				}
				if err := register(); err != nil {
					t.Fatal(err)
				}
			}
			concurrentMines(t, s, ts, m, register)
			s.kept.closeAll()
			ents, err := os.ReadDir(st.ScratchDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("spill debris after the registrations ended: %v", ents)
			}
			kept := keptDirs(t, filepath.Join(dir, "store"))
			if len(kept) > 1 || len(kept) == 1 && !stored {
				t.Fatalf("kept/ after the registrations ended: %v", kept)
			}
			for _, d := range []string{st.ScratchDir(), filepath.Join(dir, "store", "kept")} {
				if n := spillFDs(d); n > 0 {
					t.Fatalf("%d spill files still open under %s", n, d)
				}
			}
			if got := s.kept.bytes.Value(); got != 0 {
				t.Fatalf("kept-bytes gauge reads %d with nothing kept", got)
			}
		})
	}
}

// concurrentMines races mines of s's dataset "d" (m, file-backed)
// against cancellations and, every eighth mine, a DELETE and register.
func concurrentMines(t *testing.T, s *Server, ts *httptest.Server, m *matrix.Matrix, register func() error) {
	t.Helper()
	rts := residentServer(t, m)
	keys := benchKeys[:6]
	want := map[string][]byte{}
	for _, q := range keys {
		want[q] = mineBody(t, rts.URL, "d", q)
	}
	// The builder's request, and with it its context, ends here.
	if got := mineBody(t, ts.URL, "d", keys[0]); !bytes.Equal(got, want[keys[0]]) {
		t.Fatal("first mine differs from the resident reply")
	}

	get := func(ctx context.Context, q string) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/datasets/d/"+q+"&limit=1000000", nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms": 0`)), err
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := keys[i%len(keys)]
			if i%3 == 2 {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*time.Millisecond/4)
				defer cancel()
				get(ctx, q) // cancelled, or done in time: either is fine
				return
			}
			status, body, err := get(context.Background(), q)
			switch {
			case err != nil:
				errs <- fmt.Errorf("mine %d: %v", i, err)
			case status == http.StatusNotFound:
			case status != http.StatusOK:
				errs <- fmt.Errorf("mine %d: status %d: %.200s", i, status, body)
			case !bytes.Equal(body, want[q]):
				errs <- fmt.Errorf("mine %d, %s: reply differs\n got: %.300s\nwant: %.300s", i, q, body, want[q])
			}
		}()
		if i%8 == 7 {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/d", nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
			if err := register(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitIdle(t, s)
	if got := mineBody(t, ts.URL, "d", keys[1]); !bytes.Equal(got, want[keys[1]]) {
		t.Fatal("mine after the race differs from the resident reply")
	}
}

// keptSegments lists the spill segments of the partitions under dir.
func keptSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, stream.SpillDirPrefix+"*", "bucket-*.rows"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestKeptFaultCorruptSegment: a kept partition whose replay breaks —
// a segment failing its frame CRC on every re-read, or a segment gone —
// is retired: the mine partitions the file again and replies exactly,
// and the broken directory is removed. The mines after the damage ask
// for a threshold below the first, so the memo cannot serve them and
// the replay reaches the damaged segment.
func TestKeptFaultCorruptSegment(t *testing.T) {
	for _, damage := range []string{"corrupt", "missing"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			st := openTestStore(t, filepath.Join(dir, "store"), store.Options{})
			m := keptMatrix(t, 1)
			path := filepath.Join(dir, "d"+matrix.ExtBinary)
			saveAged(t, path, m, time.Hour)
			_, ts := keptServer(t, Config{Store: st}, path)
			rts := residentServer(t, m)
			const q, below = "similarities?threshold=70", "similarities?threshold=60"
			if got, want := mineBody(t, ts.URL, "d", q), mineBody(t, rts.URL, "d", q); !bytes.Equal(got, want) {
				t.Fatal("first mine differs from the resident reply")
			}
			want := mineBody(t, rts.URL, "d", below)
			segs := keptSegments(t, st.ScratchDir())
			if len(segs) == 0 {
				t.Fatal("no kept segments after the first mine")
			}
			victim := segs[len(segs)-1]
			if damage == "missing" {
				if err := os.Remove(victim); err != nil {
					t.Fatal(err)
				}
			} else {
				b, err := os.ReadFile(victim)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)-1] ^= 0xff // the last frame's payload
				if err := os.WriteFile(victim, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := streamPartitions.Value()
			for round := 0; round < 2; round++ {
				if got := mineBody(t, ts.URL, "d", below); !bytes.Equal(got, want) {
					t.Fatalf("round %d after the damage: reply differs\n got: %.400s\nwant: %.400s", round, got, want)
				}
			}
			if n := streamPartitions.Value() - before; n != 1 {
				t.Fatalf("%d partitions built after the damage, want 1", n)
			}
			if _, err := os.Stat(filepath.Dir(victim)); !os.IsNotExist(err) {
				t.Fatalf("the broken partition was not removed: %v", err)
			}
		})
	}
}

// TestKeptFaultENOSPC: a build that runs out of disk evicts the idle
// kept partition of another dataset and retries once; the retry's
// partition serves, the evicted one is gone from disk and from the
// gauge, and its dataset partitions again at its next mine. A build
// whose retry runs out of disk too answers 507, as a PUT on a full disk
// does, and the dataset mines once the disk has room.
func TestKeptFaultENOSPC(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, filepath.Join(dir, "store"), store.Options{})
	s := NewWith(Config{Store: st, Registry: obs.NewRegistry()})
	t.Cleanup(s.kept.closeAll)
	ms := map[string]*matrix.Matrix{"a": keptMatrix(t, 1), "b": keptMatrix(t, 2), "c": keptMatrix(t, 3)}
	for name, m := range ms {
		path := filepath.Join(dir, name+matrix.ExtBinary)
		saveAged(t, path, m, time.Hour)
		if err := s.AddFile(name, path); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const q = "implications?threshold=70"
	check := func(name string) {
		t.Helper()
		want := mineBody(t, residentServer(t, ms[name]).URL, "d", q)
		got := mineBody(t, ts.URL, name, q)
		got = bytes.Replace(got, []byte(`"dataset": "`+name+`"`), []byte(`"dataset": "d"`), 1)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reply differs\n got: %.400s\nwant: %.400s", name, got, want)
		}
	}
	check("a")
	aBytes := s.kept.bytes.Value()
	if aBytes == 0 || len(keptSegments(t, st.ScratchDir())) == 0 {
		t.Fatal("a's partition was not kept")
	}
	in := fault.NewInjector(fault.Scenario{Name: "enospc", ENOSPC: true, FailWriteAt: 1})
	s.kept.fs = in
	before := streamPartitions.Value()
	check("b")
	if _, writes, _, _ := in.Counts(); writes < 2 {
		t.Fatalf("the injector saw %d writes: the ENOSPC build was not retried", writes)
	}
	if n := streamPartitions.Value() - before; n != 1 {
		t.Fatalf("%d partitions committed for b, want 1 (the retry)", n)
	}
	dirs, err := filepath.Glob(filepath.Join(st.ScratchDir(), stream.SpillDirPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, seg := range keptSegments(t, st.ScratchDir()) {
		onDisk += fileSize(t, seg)
	}
	if got := s.kept.bytes.Value(); len(dirs) != 1 || got != onDisk {
		t.Fatalf("after the eviction: %d partition dirs holding %d bytes, gauge %d (a's was %d)", len(dirs), onDisk, got, aBytes)
	}
	s.kept.fs = nil
	before = streamPartitions.Value()
	check("a")
	if n := streamPartitions.Value() - before; n != 1 {
		t.Fatalf("the evicted dataset built %d partitions, want 1", n)
	}

	s.kept.fs = fault.NewInjector(fault.Scenario{Name: "disk full", ENOSPC: true, FailWriteAt: 1, FailForever: true})
	resp, err := http.Get(ts.URL + "/v1/datasets/c/" + q)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInsufficientStorage || !bytes.Contains(body, []byte("no space left on device")) {
		t.Fatalf("mine on a full disk: %d %s, want 507 naming ENOSPC", resp.StatusCode, body)
	}
	s.kept.fs = nil
	check("c")
}

// checkpointWrites is the stream package's dmc_checkpoint_writes_total.
var checkpointWrites = obs.Default.Counter("dmc_checkpoint_writes_total", "")

// storedServer boots a server over the store at dir, as dmcserve
// -data-dir does: LoadStore registers every entry of streamMin bytes or
// more file-backed.
func storedServer(t *testing.T, dir string, streamMin int64) (*Server, *httptest.Server) {
	t.Helper()
	st := openTestStore(t, dir, store.Options{})
	s := NewWith(Config{Store: st, StreamMinBytes: streamMin, Registry: obs.NewRegistry()})
	if err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// stop ends s as Run's return does, then closes its store.
func stop(s *Server, ts *httptest.Server) {
	ts.Close()
	s.kept.closeAll()
	s.st.Close()
}

// keptDirs lists the partition directories under the store at dir.
func keptDirs(t *testing.T, dir string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "kept", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestKeptRestartResumes: a stored streamed dataset's kept partition
// outlives the server. After mines of both families, a server booted
// over the same store resumes it: its mines run no partition pass and
// commit no checkpoint, and reply as a resident server does. From boot,
// dmc_stream_kept_bytes counts the partition's bytes on disk.
func TestKeptRestartResumes(t *testing.T) {
	dir := t.TempDir()
	rts := residentServer(t, keptMatrix(t, 1))
	keys := []string{"implications?threshold=70", "similarities?threshold=70"}
	s, ts := storedServer(t, dir, 1)
	if resp := doPut(t, ts.URL, "d", memoBaskets(1)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}
	want := map[string][]byte{}
	for _, q := range keys {
		want[q] = mineBody(t, rts.URL, "d", q)
		if got := mineBody(t, ts.URL, "d", q); !bytes.Equal(got, want[q]) {
			t.Fatalf("%s before the restart: reply differs\n got: %.400s\nwant: %.400s", q, got, want[q])
		}
	}
	stop(s, ts)
	dirs := keptDirs(t, dir)
	if len(dirs) != 1 {
		t.Fatalf("kept/ holds %v after Run's end, want the one partition", dirs)
	}

	parts, writes := streamPartitions.Value(), checkpointWrites.Value()
	s, ts = storedServer(t, dir, 1)
	if got, onDisk := s.kept.bytes.Value(), dirBytes(dirs[0]); got == 0 || got != onDisk {
		t.Fatalf("at boot the kept gauge reads %d, the partition holds %d bytes", got, onDisk)
	}
	for round := 0; round < 2; round++ {
		for _, q := range keys {
			if got := mineBody(t, ts.URL, "d", q); !bytes.Equal(got, want[q]) {
				t.Fatalf("round %d, %s after the restart: reply differs\n got: %.400s\nwant: %.400s", round, q, got, want[q])
			}
		}
	}
	if n := streamPartitions.Value() - parts; n != 0 {
		t.Fatalf("the restarted server partitioned %d times, want 0", n)
	}
	if n := checkpointWrites.Value() - writes; n != 0 {
		t.Fatalf("the restarted server committed %d checkpoints, want 0", n)
	}
	if d := keptDirs(t, dir); !slices.Equal(d, dirs) {
		t.Fatalf("kept/ holds %v after the restart's mines, want %v", d, dirs)
	}
}

// lifecycleBody is rows basket lines of 1 to 20 items drawn from 60.
func lifecycleBody(seed int64, rows int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		for j := rng.Intn(20); j >= 0; j-- {
			fmt.Fprintf(&sb, "i%d ", rng.Intn(60))
		}
		sb.WriteString("x\n")
	}
	return sb.String()
}

// TestKeptBootSweep: a durable partition lives as long as its stored
// streamed dataset. A DELETE and a PUT overwrite remove theirs at once.
// At the next boot LoadStore keeps one committed partition per streamed
// entry and removes the rest: the partition of an entry the catalog
// lost (a delete that never reached the registrations), of a dataset
// now under -stream-min-bytes, and a build cut off before its
// manifest. The kept one is resumed, not rebuilt.
func TestKeptBootSweep(t *testing.T) {
	dir := t.TempDir()
	s, ts := storedServer(t, dir, 1)
	const q = "implications?threshold=70"
	for i, name := range []string{"gone", "swap", "lost", "small", "keep"} {
		rows := 400
		if name == "small" {
			rows = 40
		}
		if resp := doPut(t, ts.URL, name, lifecycleBody(int64(i), rows)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
		}
		mineBody(t, ts.URL, name, q)
	}
	if dirs := keptDirs(t, dir); len(dirs) != 5 {
		t.Fatalf("kept/ holds %d partitions after five mines", len(dirs))
	}
	if resp := doReq(t, http.MethodDelete, ts.URL+"/v1/datasets/gone", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if resp := doPut(t, ts.URL, "swap", lifecycleBody(9, 400)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT overwrite: status %d", resp.StatusCode)
	}
	if dirs := keptDirs(t, dir); len(dirs) != 3 {
		t.Fatalf("kept/ holds %d partitions after a DELETE and an overwrite, want 3", len(dirs))
	}
	want := mineBody(t, ts.URL, "keep", q)
	if err := s.st.Delete("lost"); err != nil {
		t.Fatal(err)
	}
	keep, _ := s.st.Get("keep")
	small, _ := s.st.Get("small")
	cut := filepath.Join(dir, "kept", keep.Hash+"-cut")
	if err := os.Mkdir(cut, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cut, "bucket-00.rows"), []byte("DMCF"), 0o644); err != nil {
		t.Fatal(err)
	}
	stop(s, ts)
	kept, _ := filepath.Glob(filepath.Join(dir, "kept", keep.Hash+"-*"))
	if len(kept) != 2 {
		t.Fatalf("keep's partitions before the boot: %v", kept)
	}

	s, ts = storedServer(t, dir, small.Size+1)
	if dirs := keptDirs(t, dir); len(dirs) != 1 || dirs[0] == cut || !strings.HasPrefix(dirs[0], filepath.Join(dir, "kept", keep.Hash)) {
		t.Fatalf("kept/ after the boot holds %v, want keep's committed partition alone", dirs)
	}
	parts := streamPartitions.Value()
	if got := mineBody(t, ts.URL, "keep", q); !bytes.Equal(got, want) {
		t.Fatalf("keep after the boot: reply differs\n got: %.400s\nwant: %.400s", got, want)
	}
	if n := streamPartitions.Value() - parts; n != 0 {
		t.Fatalf("keep's first mine after the boot partitioned %d times, want 0", n)
	}
	if d, _ := s.get("small"); d.m == nil {
		t.Fatal("small is still file-backed under -stream-min-bytes")
	}
	mineBody(t, ts.URL, "swap", q)
	if dirs := keptDirs(t, dir); len(dirs) != 2 {
		t.Fatalf("kept/ holds %d partitions after swap's mine, want 2", len(dirs))
	}
}

// renameFaultFS is a fault.Injector whose at-th rename fails too; the
// Injector itself passes renames through.
type renameFaultFS struct {
	*fault.Injector
	at, n atomic.Int64
}

func (f *renameFaultFS) Rename(oldpath, newpath string) error {
	if n := f.n.Add(1); n == f.at.Load() {
		return &fault.Error{Op: "rename", Path: oldpath, N: n, Err: fault.ErrInjected}
	}
	return f.Injector.Rename(oldpath, newpath)
}

// TestKeptFaultSweep fails every create, write, sync and rename of a
// stored streamed dataset's first build in turn, one cell per
// operation. The failed mine answers a structured 500 and leaves no
// directory under kept/. A server booted over the same store after the
// failure partitions afresh; only after the healthy build, whose
// manifest committed, does it resume. Either way its imp and sim
// replies equal a resident server's, and kept/ then holds exactly the
// one partition.
func TestKeptFaultSweep(t *testing.T) {
	body := lifecycleBody(1, 600)
	m := mustParseBaskets(t, body)
	rts := residentServer(t, unlabeled(m))
	keys := []string{"implications?threshold=60", "similarities?threshold=60"}
	want := map[string][]byte{}
	for _, q := range keys {
		want[q] = mineBody(t, rts.URL, "d", q)
	}
	// run stores the dataset under a fresh directory and serves it with
	// fs under the builds. With probe set it drives the build first and
	// counts its creates, writes, syncs and renames into probe.
	run := func(t *testing.T, fs *renameFaultFS, probe *[4]int64) (dir string, status int, body []byte) {
		t.Helper()
		dir = t.TempDir()
		st := openTestStore(t, dir, store.Options{})
		if _, err := st.Put("d", m); err != nil {
			t.Fatal(err)
		}
		s, ts := storedServer(t, dir, 1)
		st.Close()
		s.kept.fs = fs
		if probe != nil {
			d, _ := s.get("d")
			k, _, err := s.kept.acquire(context.Background(), d, s.streamCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			s.kept.release(d.slot, k, false)
			_, writes, creates, syncs := fs.Counts()
			*probe = [4]int64{creates, writes, syncs, fs.n.Load()}
		}
		resp, err := http.Get(ts.URL + "/v1/datasets/d/" + keys[0])
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		s.st.Close() // a crash: the registrations never end
		return dir, resp.StatusCode, body
	}
	// reboot serves dir on a healthy disk and checks the replies and how
	// many partitions the boot's mines built.
	reboot := func(t *testing.T, dir string, builds int64) {
		t.Helper()
		parts := streamPartitions.Value()
		_, ts := storedServer(t, dir, 1)
		for _, q := range keys {
			if got := mineBody(t, ts.URL, "d", q); !bytes.Equal(got, want[q]) {
				t.Fatalf("%s after the boot: reply differs\n got: %.400s\nwant: %.400s", q, got, want[q])
			}
		}
		if n := streamPartitions.Value() - parts; n != builds {
			t.Fatalf("the boot's mines partitioned %d times, want %d", n, builds)
		}
		if dirs := keptDirs(t, dir); len(dirs) != 1 {
			t.Fatalf("kept/ holds %v after the boot's mines, want one partition", dirs)
		}
	}

	var ops [4]int64
	dir, status, _ := run(t, &renameFaultFS{Injector: fault.NewInjector(fault.Scenario{})}, &ops)
	if status != http.StatusOK {
		t.Fatalf("healthy mine: status %d", status)
	}
	reboot(t, dir, 0)

	for _, op := range []struct {
		name string
		n    int64
	}{{"create", ops[0]}, {"write", ops[1]}, {"sync", ops[2]}, {"rename", ops[3]}} {
		if op.n == 0 {
			t.Fatalf("the build did no %s", op.name)
		}
		for at := int64(1); at <= op.n; at++ {
			t.Run(fmt.Sprintf("%s-%d", op.name, at), func(t *testing.T) {
				var sc fault.Scenario
				switch op.name {
				case "create":
					sc.FailOpenAt = at
				case "write":
					sc.FailWriteAt = at
				case "sync":
					sc.FailSyncAt = at
				}
				fs := &renameFaultFS{Injector: fault.NewInjector(sc)}
				if op.name == "rename" {
					fs.at.Store(at)
				}
				dir, status, body := run(t, fs, nil)
				if status != http.StatusInternalServerError || !bytes.Contains(body, []byte(`"error"`)) {
					t.Fatalf("mine with the fault: %d %s, want a structured 500", status, body)
				}
				if dirs := keptDirs(t, dir); len(dirs) != 0 {
					t.Fatalf("the failed build left %v", dirs)
				}
				reboot(t, dir, 1)
			})
		}
	}
}

// TestJobReplaysKeptPartition: a job on a file-backed dataset that an
// HTTP mine already partitioned replays that partition: it ends
// resumed, runs no partition pass, and its payload holds the rules a
// fresh stream mine of the file finds. A job that partitions the file
// itself ends unresumed.
func TestJobReplaysKeptPartition(t *testing.T) {
	m := keptMatrix(t, 1)
	path := filepath.Join(t.TempDir(), "d"+matrix.ExtBinary)
	saveAged(t, path, m, time.Hour)
	s, ts := keptServer(t, Config{}, path)
	if err := s.AddFile("e", path); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenJobs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseJobs() })
	fresh, _, err := stream.MineImplicationsCfg(path, core.FromPercent(60), core.Options{}, stream.Config{Workers: 1, TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rules.SortImplications(fresh)
	var want bytes.Buffer
	if err := rules.WriteImplications(&want, fresh); err != nil {
		t.Fatal(err)
	}
	mineBody(t, ts.URL, "d", "implications?threshold=70")
	for _, tc := range []struct {
		dataset string
		resumed bool
	}{{"d", true}, {"e", false}} {
		parts := streamPartitions.Value()
		var j jobs.Job
		doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", `{"dataset":"`+tc.dataset+`","pipeline":"imp","threshold":60,"workers":1}`, http.StatusAccepted, &j)
		if done := waitJobState(t, ts.URL, "", j.ID, jobs.StateDone); done.Resumed != tc.resumed {
			t.Fatalf("job on %s = %+v, want resumed %v", tc.dataset, done, tc.resumed)
		}
		if n, want := streamPartitions.Value()-parts, map[bool]int64{true: 0, false: 1}[tc.resumed]; n != want {
			t.Fatalf("the job on %s partitioned %d times, want %d", tc.dataset, n, want)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("payload of the job on %s differs from a fresh stream mine\n got: %.300s\nwant: %.300s", tc.dataset, got, want.Bytes())
		}
	}
}
