package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/gen"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/store"
)

// basketText renders m as basket lines, one per row.
func basketText(t testing.TB, m *matrix.Matrix) string {
	t.Helper()
	var b strings.Builder
	if err := matrix.WriteBaskets(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// benchMatrix is gen.Bench at scale 1/8 with i<id> labels, as the load
// benchmark serves it.
func benchMatrix(seed int64) *matrix.Matrix {
	m := gen.Bench(gen.Config{Scale: 0.125, Seed: seed})
	ls := make([]string, m.NumCols())
	for c := range ls {
		ls[c] = "i" + strconv.Itoa(c)
	}
	m.SetLabels(ls)
	return m
}

// benchData is benchMatrix(1) and its 128-row append batches: rows of
// the same generator under the next seed, in order, as basket lines.
func benchData(batches int) (*matrix.Matrix, []string) {
	src := benchMatrix(2)
	out := make([]string, batches)
	next := 0
	for b := range out {
		var buf strings.Builder
		for r := 0; r < 128; r++ {
			for j, c := range src.Row(next) {
				if j > 0 {
					buf.WriteByte(' ')
				}
				buf.WriteString(src.Label(c))
			}
			buf.WriteByte('\n')
			next = (next + 1) % src.NumRows()
		}
		out[b] = buf.String()
	}
	return benchMatrix(1), out
}

// freshReply mines q of body's matrix on a cacheless server that never
// saw an append: the reference every path must match byte for byte.
func freshReply(t *testing.T, body, q string) minedReply {
	t.Helper()
	ref := New()
	ref.Add("d", mustParseBaskets(t, body))
	ts := httptest.NewServer(ref.Handler())
	defer ts.Close()
	var want minedReply
	getJSON(t, ts.URL+"/v1/datasets/d/"+q, http.StatusOK, &want)
	return want
}

// checkFresh mines q of dataset d on base and requires the rules a
// fresh server mines from body.
func checkFresh(t *testing.T, base, body, q, wantSource string) {
	t.Helper()
	var got minedReply
	getJSON(t, base+"/v1/datasets/d/"+q, http.StatusOK, &got)
	want := freshReply(t, body, q)
	if got.Source != wantSource || got.Total != want.Total || got.Truncated != want.Truncated || !bytes.Equal(got.Rules, want.Rules) {
		t.Fatalf("%s: source %q, %d rules, want source %q and a fresh server's %d rules\n got %.300s\nwant %.300s",
			q, got.Source, got.Total, wantSource, want.Total, got.Rules, want.Rules)
	}
}

// TestAppendCountsBound: an append builds or grows a dataset's miss
// counters only when their bound — min(Σ w(w−1)/2, cols(cols−1)/2)
// pairs at core.PairBytes each — fits under the bytes admission charges
// a resident mine of the grown dataset and under the tenant's byte
// quota beside it, and the brownout ledger grants them. An append that
// builds none still commits, and the mines after it scan to a fresh
// server's bytes.
func TestAppendCountsBound(t *testing.T) {
	t.Run("dicD", func(t *testing.T) {
		// 1,839 rows × 4,827 columns with 9.4M co-occurring pairs: the
		// counters alone would be ~113 MB against a 0.33 MB footprint.
		// Building them took 9.45 s and allocated 985 MB; without them
		// the append takes a few ms and allocates about 2 MB.
		ds, _ := gen.ByName("dicD", gen.Config{Scale: 0.05, Seed: 1})
		body := basketText(t, ds.M)
		s, ts := cachedTestServer(t)
		putDataset(t, ts.URL, "d", body)
		row := body[:strings.IndexByte(body, '\n')+1]

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		r := doAppendJSON(t, ts.URL, "d", row)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		t.Logf("one-row append: %v, %d KB allocated", elapsed, (ms1.TotalAlloc-ms0.TotalAlloc)>>10)
		if elapsed > time.Second {
			t.Errorf("one-row append took %v, want well under a second", elapsed)
		}
		if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > 16<<20 {
			t.Errorf("one-row append allocated %d MB, want at most 16", alloc>>20)
		}
		if r.Incremental {
			t.Error("the append answered incremental: true with no counters to fold into")
		}
		if d, _ := s.get("d"); d.inc != nil {
			t.Errorf("the append left %d pair counters on the dataset", d.inc.Pairs())
		}
		checkFresh(t, ts.URL, body+row, "implications?threshold=85", "")
		checkFresh(t, ts.URL, body+row, "similarities?threshold=85", "")
	})

	t.Run("fold outgrows", func(t *testing.T) {
		s, ts := cachedTestServer(t)
		putDataset(t, ts.URL, "d", basketBody)
		body := basketBody
		for i, batch := range []string{"bread tea\n", "jam coffee\n"} {
			body += batch
			if r := doAppendJSON(t, ts.URL, "d", batch); r.Incremental != (i > 0) {
				t.Fatalf("append %d: incremental %v, want %v", i, r.Incremental, i > 0)
			}
		}
		d, _ := s.get("d")
		if d.inc == nil {
			t.Fatal("small appends built no counters; the test is vacuous")
		}
		// One row over 40 new items: 780 more pairs, 9.4 KB of counters
		// against a footprint of about 1.3 KB.
		wide := make([]string, 40)
		for i := range wide {
			wide[i] = "n" + strconv.Itoa(i)
		}
		for _, batch := range []string{strings.Join(wide, " ") + "\n", "bread butter\n"} {
			body += batch
			if r := doAppendJSON(t, ts.URL, "d", batch); r.Incremental {
				t.Fatalf("append of %q answered incremental: true past the bound", batch)
			}
			if d, _ := s.get("d"); d.inc != nil {
				t.Fatalf("append of %q left %d counters past the bound", batch, d.inc.Pairs())
			}
		}
		checkFresh(t, ts.URL, body, "implications?threshold=60", "")
		checkFresh(t, ts.URL, body, "similarities?threshold=40", "")
	})

	t.Run("brownout", func(t *testing.T) {
		st := openTestStore(t, t.TempDir(), store.Options{})
		s := NewWith(Config{Store: st, Cache: openTestCache(t, t.TempDir()), BrownoutBytes: 1000})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		putDataset(t, ts.URL, "d", basketBody)
		// A resident mine holding 900 of the ledger's 1000 bytes.
		release, brownout := s.admitResident(900)
		if brownout {
			t.Fatal("an idle ledger refused 900 bytes")
		}
		doAppendJSON(t, ts.URL, "d", "bread tea\n")
		if d, _ := s.get("d"); d.inc != nil {
			t.Fatal("the append built counters the brownout ledger had no room for")
		}
		release()
		if r := doAppendJSON(t, ts.URL, "d", "jam coffee\n"); r.Incremental {
			t.Fatal("a build answered incremental: true")
		}
		if d, _ := s.get("d"); d.inc == nil {
			t.Fatal("the append built no counters with the ledger free")
		}
		if got := s.resident.Load(); got != 0 {
			t.Fatalf("the build left %d bytes on the ledger", got)
		}
		checkFresh(t, ts.URL, basketBody+"bread tea\njam coffee\n", "implications?threshold=60", "incremental")
	})

	t.Run("tenant quota", func(t *testing.T) {
		// Held counters are billed with the dataset's bytes, so they are
		// built only where the tenant's byte quota leaves room for them
		// beside the grown dataset; one byte short, the append commits
		// without them.
		const batch = "bread tea\n"
		grown := mustParseBaskets(t, basketBody+batch)
		size := core.Footprint(grown.NumOnes(), grown.NumCols())
		need := core.PairBound(grown, 0, 0) * core.PairBytes
		if need > size {
			t.Fatalf("bound %d B over the footprint %d B; the test is vacuous", need, size)
		}
		for _, room := range []int64{need - 1, need} {
			st := openTestStore(t, t.TempDir(), store.Options{})
			s := NewWith(Config{Store: st, Cache: openTestCache(t, t.TempDir()), Registry: obs.NewRegistry(),
				TenantQuota: TenantQuota{MaxBytes: size + room}})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			putDataset(t, ts.URL, "d", basketBody)
			if r := doAppendJSON(t, ts.URL, "d", batch); r.Incremental {
				t.Fatal("a build answered incremental: true")
			}
			d, _ := s.get("d")
			if (d.inc != nil) != (room == need) {
				t.Fatalf("room %d B for a %d B bound: counters held %v", room, need, d.inc != nil)
			}
			e, _ := st.Get("d")
			bill := e.Size
			if d.inc != nil {
				bill += int64(d.inc.Pairs()) * core.PairBytes
			}
			_, used := s.tenantUsage(defaultTenant)
			if g := s.metrics.tenantBytes.With(defaultTenant).Value(); used != bill || g != bill {
				t.Fatalf("room %d B: tenant bytes %d, gauge %d, want the blob's %d B and the counters'", room, used, g, bill)
			}
			src := ""
			if d.inc != nil {
				src = "incremental"
			}
			checkFresh(t, ts.URL, basketBody+batch, "implications?threshold=60", src)
		}
	})

	t.Run("bench", func(t *testing.T) {
		// gen.Bench 1/8: at most 512·511/2 pairs, 1.57 MB, against a
		// footprint of about 7.8 MB, so its counters are built.
		m, batches := benchData(1)
		s, ts := cachedTestServer(t)
		s.Add("d", m)
		if r := doAppendJSON(t, ts.URL, "d", batches[0]); r.Incremental || r.Appended != 128 {
			t.Fatalf("append = %+v, want 128 rows built, not folded", r)
		}
		d, _ := s.get("d")
		if d.inc == nil {
			t.Fatal("gen.Bench 1/8 built no counters")
		}
		need, footprint := core.PairBound(d.m, 0, 0)*core.PairBytes, d.footprint()
		if need != 512*511/2*core.PairBytes || need >= footprint || int64(d.inc.Pairs()) > need/core.PairBytes {
			t.Fatalf("bound %d B, footprint %d B, %d pairs held", need, footprint, d.inc.Pairs())
		}
		var r minedReply
		getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=85", http.StatusOK, &r)
		if r.Source != "incremental" {
			t.Fatalf("mine after the append: source %q, want incremental", r.Source)
		}
	})
}

// TestAppendConcurrentMines: mines racing appends each see one
// registration, whole. Every imp and sim reply equals a fresh server's
// for some version of the dataset, and no client sees the versions go
// backwards, while each append folds into a copy of the counters the
// mines are deriving from.
func TestAppendConcurrentMines(t *testing.T) {
	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, fmt.Sprintf("i%d i%d i%d", i%5, 5+i%3, 8+i%7))
	}
	const batch, appends = 3, 16
	for i := 0; i < batch*appends; i++ {
		lines = append(lines, fmt.Sprintf("i%d i%d i%d i%d", i%4, 5+i%3, 8+i%5, 15+i%2))
	}
	version := func(v int) string { return strings.Join(lines[:60+batch*v], "\n") + "\n" }
	queries := []string{"implications?threshold=60&limit=1000", "similarities?threshold=40&limit=1000"}
	want := make([][]minedReply, len(queries)) // want[q][v]
	for q := range queries {
		for v := 0; v <= appends; v++ {
			want[q] = append(want[q], freshReply(t, version(v), queries[q]))
		}
	}

	s, ts := cachedTestServer(t)
	putDataset(t, ts.URL, "d", version(0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	sources := map[string]int{}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			lo := 0 // the oldest version this client may still see
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more mine, of the last version
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/datasets/d/" + queries[q])
				if err != nil {
					t.Error(err)
					return
				}
				var got minedReply
				err = decodeBody(resp, &got)
				if err != nil {
					t.Error(err)
					return
				}
				v := lo
				for v <= appends && (got.Total != want[q][v].Total || !bytes.Equal(got.Rules, want[q][v].Rules)) {
					v++
				}
				if v > appends {
					t.Errorf("%s: %d rules match no version from %d on\n%.300s", queries[q], got.Total, lo, got.Rules)
					return
				}
				lo = v
				mu.Lock()
				sources[got.Source]++
				mu.Unlock()
			}
		}(c % len(queries))
	}
	for v := 1; v <= appends; v++ {
		r := doAppendJSON(t, ts.URL, "d", strings.Join(lines[60+batch*(v-1):60+batch*v], "\n")+"\n")
		if r.Incremental != (v > 1) {
			t.Errorf("append %d: incremental %v, want %v", v, r.Incremental, v > 1)
		}
	}
	close(done)
	wg.Wait()
	if d, _ := s.get("d"); d.inc == nil || d.inc.Rows() != 60+batch*appends {
		t.Fatal("the last append left no counters of the whole dataset")
	}
	if sources["incremental"] == 0 {
		t.Fatalf("no mine derived from the counters (sources %v); the test is vacuous", sources)
	}
}

// decodeBody decodes a 200 reply's JSON body into v.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// BenchmarkAppendMine is append-mix's two operations on its data,
// gen.Bench at scale 1/8 PUT to a server with a store and a cache, whose
// first append has built the dataset's miss counters: append posts one
// 128-row batch, and mine is the imp@85 mine after such an append, the
// first of its version (timed alone, its append untimed).
func BenchmarkAppendMine(b *testing.B) {
	m, batches := benchData(64)
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	c, err := cache.Open(b.TempDir(), cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// dmcserve's defaults, with its log lines formatted and dropped.
	s := NewWith(Config{
		Store:              st,
		Cache:              c,
		Registry:           obs.NewRegistry(),
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxConcurrentMines: runtime.GOMAXPROCS(0),
		RequestTimeout:     2 * time.Minute,
	})
	h := s.Handler()
	serve := func(method, path, body string, want int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("%s %s: status %d: %.200s", method, path, rec.Code, rec.Body.Bytes())
		}
	}
	serve(http.MethodPut, "/v1/datasets/bench", basketText(b, m), http.StatusCreated)
	next := 0
	appendRows := func() {
		serve(http.MethodPost, "/v1/datasets/bench/rows", batches[next%len(batches)], http.StatusOK)
		next++
	}
	appendRows() // builds the counters
	if d, _ := s.get("bench"); d.inc == nil {
		b.Fatal("the warm append built no counters")
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			appendRows()
		}
	})
	b.Run("mine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			appendRows()
			b.StartTimer()
			serve(http.MethodGet, "/v1/datasets/bench/implications?threshold=85", "", http.StatusOK)
		}
	})
}
