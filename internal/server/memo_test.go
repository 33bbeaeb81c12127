package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"dmc/internal/core"
	"dmc/internal/gen"
	"dmc/internal/obs"
	"dmc/internal/store"
)

// benchKeys are the load benchmark's mines: implications at 55 to 90
// and similarities at 60 to 90, in steps of 5.
var benchKeys = func() []string {
	ks := []string{"implications?threshold=55"}
	for t := 60; t <= 90; t += 5 {
		ks = append(ks, fmt.Sprintf("implications?threshold=%d", t), fmt.Sprintf("similarities?threshold=%d", t))
	}
	return ks
}()

// memoBaskets is gen.Bench's data at scale 1/128 as labelled baskets,
// with a twin of every 50th column so that both families have 100%
// rules.
func memoBaskets(seed int64) string {
	m := gen.Bench(gen.Config{Scale: 1.0 / 128, Seed: seed})
	var sb strings.Builder
	for i := 0; i < m.NumRows(); i++ {
		for _, c := range m.Row(i) {
			fmt.Fprintf(&sb, "i%d ", c)
			if c%50 == 7 {
				fmt.Fprintf(&sb, "twin%d ", c)
			}
		}
		sb.WriteString("x\n")
	}
	return sb.String()
}

var elapsedRE = regexp.MustCompile(`"elapsed_ms": \d+`)

// mineBody GETs a mine without a rule limit and returns the response
// body with elapsed_ms zeroed, the one field two correct replies may
// differ in.
func mineBody(t *testing.T, base, dataset, query string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/datasets/" + dataset + "/" + query + "&limit=1000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", query, resp.StatusCode, body)
	}
	return elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms": 0`))
}

// phaseCount reads dmc_mine_phase_seconds_count{pipeline,phase}.
func phaseCount(s *Server, pipeline, phase string) uint64 {
	return s.metrics.phase.With(pipeline, phase).Count()
}

// freshMine is body mined at query on a server whose dataset was just
// registered, so nothing memoized serves it.
func freshMine(t *testing.T, body, query string) []byte {
	t.Helper()
	s := NewWith(Config{Registry: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	doPut(t, ts.URL, "d", body)
	return mineBody(t, ts.URL, "d", query)
}

// TestMemoServesBenchKeys: two cycles of the load benchmark's keys on
// one dataset compute each family's 100% rules once and run each
// family's <100% phase once, at its first and lowest threshold, and
// every reply is byte-identical to a mine of a freshly added dataset.
// On a server with two admission slots, where a mine that names no
// workers runs two, the keys mined in descending thresholds each run a
// two-worker <100% phase, and every reply is byte-identical to the
// fresh mine and to its workers=1 reply.
func TestMemoServesBenchKeys(t *testing.T) {
	body := memoBaskets(1)
	s := NewWith(Config{Registry: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	doPut(t, ts.URL, "d", body)
	want := map[string][]byte{}
	for _, q := range benchKeys {
		want[q] = freshMine(t, body, q)
	}
	for round := 0; round < 2; round++ {
		for _, q := range benchKeys {
			if got := mineBody(t, ts.URL, "d", q); !bytes.Equal(got, want[q]) {
				t.Fatalf("round %d, %s: memoized reply differs from a fresh mine\n got: %.400s\nwant: %.400s", round, q, got, want[q])
			}
		}
	}
	for _, pipeline := range []string{"imp", "sim"} {
		if n := phaseCount(s, pipeline, "100"); n != 1 {
			t.Errorf("%s: phase 100 observed %d times over two cycles, want once", pipeline, n)
		}
		if n := phaseCount(s, pipeline, "lt"); n != 1 {
			t.Errorf("%s: phase lt observed %d times over two cycles, want once", pipeline, n)
		}
	}

	withProcs(t, max(2, runtime.GOMAXPROCS(0)))
	s2 := NewWith(Config{MaxConcurrentMines: 2, Registry: obs.NewRegistry()})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	doPut(t, ts2.URL, "d", body)
	auto := map[string][]byte{}
	for i := len(benchKeys) - 1; i >= 0; i-- {
		q := benchKeys[i]
		if auto[q] = mineBody(t, ts2.URL, "d", q); !bytes.Equal(auto[q], want[q]) {
			t.Fatalf("%s: reply without workers differs from a fresh mine\n got: %.400s\nwant: %.400s", q, auto[q], want[q])
		}
	}
	for _, q := range benchKeys {
		if one := mineBody(t, ts2.URL, "d", q+"&workers=1"); !bytes.Equal(auto[q], one) {
			t.Fatalf("%s: reply without workers differs from workers=1\n got: %.400s\nwant: %.400s", q, auto[q], one)
		}
	}
	for _, tc := range []struct {
		pipeline string
		keys     uint64
	}{{"imp-parallel", 8}, {"sim-parallel", 7}} {
		if n := phaseCount(s2, tc.pipeline, "lt"); n != tc.keys {
			t.Errorf("%s: phase lt observed %d times, want %d", tc.pipeline, n, tc.keys)
		}
	}
}

// TestMemoRecomputesAfterChange: a PUT overwrite and an append (whose
// miss counters the tenant's byte quota has no room for, so its mines
// scan) each start the dataset with an empty memo, and requests the
// memo does not serve (min support, fleet shards) still match a fresh
// mine, also on workers whose own memo is warm.
func TestMemoRecomputesAfterChange(t *testing.T) {
	first, second, extra := memoBaskets(2), memoBaskets(3), "i7 twin7 i9\ni9 x\ni7 twin7\n"
	// Room for the largest of the three datasets and nothing beside it.
	var quota int64
	for _, body := range []string{first, second, second + extra} {
		m := mustParseBaskets(t, body)
		quota = max(quota, core.Footprint(m.NumOnes(), m.NumCols()))
	}
	s := NewWith(Config{Registry: obs.NewRegistry(), TenantQuota: TenantQuota{MaxBytes: quota}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const q = "implications?threshold=70"
	step := func(what, body string, computes uint64) {
		t.Helper()
		before := phaseCount(s, "imp", "100")
		if got, want := mineBody(t, ts.URL, "d", q), freshMine(t, body, q); !bytes.Equal(got, want) {
			t.Fatalf("%s: reply differs from a fresh mine\n got: %.400s\nwant: %.400s", what, got, want)
		}
		if n := phaseCount(s, "imp", "100") - before; n != computes {
			t.Fatalf("%s: phase 100 computed %d times, want %d", what, n, computes)
		}
	}
	doPut(t, ts.URL, "d", first)
	step("first mine", first, 1)
	step("repeat", first, 0)
	doPut(t, ts.URL, "d", second)
	step("after a PUT overwrite", second, 1)
	step("repeat after the overwrite", second, 0)
	doAppendJSON(t, ts.URL, "d", extra)
	if d, _ := s.get("d"); d.inc != nil {
		t.Fatal("the append built counters beyond the tenant's byte quota")
	}
	step("after an append", second+extra, 1)
	step("repeat after the append", second+extra, 0)

	before := phaseCount(s, "imp", "100")
	for _, mq := range []string{q + "&minsupport=40", "similarities?threshold=70&minsupport=40"} {
		if got, want := mineBody(t, ts.URL, "d", mq), freshMine(t, second+extra, mq); !bytes.Equal(got, want) {
			t.Fatalf("%s: reply differs from a fresh mine\n got: %.400s\nwant: %.400s", mq, got, want)
		}
	}
	if n := phaseCount(s, "imp", "100") - before; n != 1 {
		t.Fatalf("a min-support mine computed phase 100 %d times, want 1 (the memo must not serve it)", n)
	}

	m := mustParseBaskets(t, second+extra)
	fc := startFleet(t, 2, m, nil)
	for _, fq := range []string{q, "similarities?threshold=70"} {
		want := freshMine(t, second+extra, fq)
		// The first fleet mine pushes the replicas. Its shard tasks must
		// not fill a worker's memo, which the plain mine on each worker
		// fills next, and the second fleet mine's shard tasks must not
		// read it.
		for round := 0; round < 2; round++ {
			if got := mineBody(t, fc.coord.URL, "d", fq+"&fleet=1"); !bytes.Equal(normalizeSource(got), normalizeSource(want)) {
				t.Fatalf("round %d, fleet %s: reply differs from a fresh mine\n got: %.400s\nwant: %.400s", round, fq, got, want)
			}
			for i, w := range fc.workers {
				if got := mineBody(t, w.URL, "d", fq); !bytes.Equal(got, want) {
					t.Fatalf("round %d, %s on worker %d: reply differs from a fresh mine\n got: %.400s\nwant: %.400s", round, fq, i, got, want)
				}
			}
		}
	}
}

var sourceRE = regexp.MustCompile(`\s*"source": "[a-z]+",`)

// normalizeSource drops the source field a fleet reply carries.
func normalizeSource(body []byte) []byte { return sourceRE.ReplaceAll(body, nil) }

// TestResidentFootprintFromInfo: admission's estimate of a resident
// mine comes from the dataset's recorded ones count, and equals the
// estimate from a walk over its rows after a PUT, an append, Add and
// store recovery.
func TestResidentFootprintFromInfo(t *testing.T) {
	dir := t.TempDir()
	s := NewWith(Config{Store: openTestStore(t, dir, store.Options{}), Registry: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	check := func(s *Server, name string) {
		t.Helper()
		d, ok := s.get(name)
		if !ok {
			t.Fatalf("no dataset %q", name)
		}
		if got, want := d.footprint(), core.Footprint(d.m.NumOnes(), d.m.NumCols()); got != want {
			t.Fatalf("%s: footprint %d, want %d", name, got, want)
		}
	}
	doPut(t, ts.URL, "d", basketBody)
	check(s, "d")
	doAppendJSON(t, ts.URL, "d", "bread scone\ntea cream scone jam\n")
	check(s, "d")
	s.Add("e", mustParseBaskets(t, basketBody))
	check(s, "e")
	ts.Close()
	s.st.Close()

	s2 := NewWith(Config{Store: openTestStore(t, dir, store.Options{}), Registry: obs.NewRegistry()})
	if err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	check(s2, "d")
}
