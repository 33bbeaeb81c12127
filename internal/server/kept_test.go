package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/fault"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
	"dmc/internal/stream"
)

// streamPartitions is the stream package's dmc_stream_partitions_total.
var streamPartitions = obs.Default.Counter("dmc_stream_partitions_total", "")

// keptMatrix is memoBaskets(seed) without its labels, so a resident
// server renders its columns as c<id>, as a file-backed one does.
func keptMatrix(t *testing.T, seed int64) *matrix.Matrix {
	t.Helper()
	m := mustParseBaskets(t, memoBaskets(seed))
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
// exact, as do a DELETE and a re-AddFile of the dataset racing the
// mines (those reply exactly or 404). Once the registrations end, the
// scratch directory holds no spill directory and no spill file is open.
func TestKeptConcurrentMines(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, filepath.Join(dir, "store"), store.Options{})
	m := keptMatrix(t, 1)
	path := filepath.Join(dir, "d"+matrix.ExtBinary)
	saveAged(t, path, m, time.Hour)
	s, ts := keptServer(t, Config{Store: st, MaxConcurrentMines: 4, MaxQueueDepth: -1}, path)
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
			if err := s.AddFile("d", path); err != nil {
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

	s.kept.closeAll()
	ents, err := os.ReadDir(st.ScratchDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill debris after the registrations ended: %v", ents)
	}
	if n := spillFDs(st.ScratchDir()); n > 0 {
		t.Fatalf("%d spill files still open", n)
	}
	if got := s.kept.bytes.Value(); got != 0 {
		t.Fatalf("kept-bytes gauge reads %d with nothing kept", got)
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
// and the broken directory is removed.
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
			const q = "similarities?threshold=70"
			want := mineBody(t, rts.URL, "d", q)
			if got := mineBody(t, ts.URL, "d", q); !bytes.Equal(got, want) {
				t.Fatal("first mine differs from the resident reply")
			}
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
				if got := mineBody(t, ts.URL, "d", q); !bytes.Equal(got, want) {
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
