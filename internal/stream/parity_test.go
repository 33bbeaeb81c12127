package stream

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// TestStreamParityAcrossWorkers is the parity property for the parallel
// disk path: mining straight from a file — any worker fan-out (which
// also shards the partitioning pass), any frame size, with and without
// a forced DMC-bitmap switch — must produce exactly the serial
// in-memory miner's rule set. Run under -race in CI, this also
// exercises the broadcast reader's concurrency.
func TestStreamParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 300, 36)
	th := core.FromPercent(80)

	variants := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		// Forced switch on the first row: the whole run exercises the
		// DMC-bitmap path, including the shared tail build and the
		// early-abandoned broadcast views it causes.
		{"bitmap", core.Options{BitmapMaxRows: m.NumRows() + 1, BitmapMinBytes: -1}},
	}
	// The cell names keep the partition-worker and codec fields of
	// their earlier form (pw0: partitioning follows Workers; the framed
	// codec is the only one), so each cell's name is stable.
	configs := []struct {
		name string
		cfg  Config
	}{
		{"w1-pw0-legacyfalse", Config{Workers: 1}},
		{"w2-pw0-legacyfalse", Config{Workers: 2}},
		{"w8-pw0-legacyfalse", Config{Workers: 8, frameRows: 16}},
	}

	for _, ext := range []string{matrix.ExtBinary, matrix.ExtText} {
		path := writeTemp(t, m, ext)
		for _, v := range variants {
			wantImp, _ := core.DMCImp(m, th, v.opts)
			wantSim, _ := core.DMCSim(m, th, v.opts)
			for _, c := range configs {
				t.Run(ext+"/"+v.name+"/"+c.name, func(t *testing.T) {
					gotImp, _, err := MineImplicationsCfg(path, th, v.opts, c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if d := rules.DiffImplications(gotImp, wantImp); d != "" {
						t.Fatalf("imp mismatch:\n%s", d)
					}
					gotSim, _, err := MineSimilaritiesCfg(path, th, v.opts, c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
						t.Fatalf("sim mismatch:\n%s", d)
					}
				})
			}
		}
	}
}

// TestConcurrentPassViews checks the broadcast invariant directly:
// every view of one ConcurrentPass sees the full row sequence, and the
// pass costs one read (openFDs returns to zero, reader map drains).
func TestConcurrentPassViews(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomMatrix(rng, 200, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), frameRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var want []string
	serial := p.Pass()
	for i := 0; i < serial.Len(); i++ {
		want = append(want, key(serial.Row(i)))
	}

	const n = 4
	views := p.ConcurrentPass(n)
	got := make([][]string, n)
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rows := views[v]
			for i := 0; i < rows.Len(); i++ {
				got[v] = append(got[v], key(rows.Row(i)))
			}
		}(v)
	}
	wg.Wait()
	// The views can read the final row before the pass reader has
	// closed its last segment and unregistered itself, so wait for the
	// readers to drain before checking what they left behind.
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		p.mu.Lock()
		live := len(p.readers)
		p.mu.Unlock()
		if live == 0 {
			break
		}
	}
	for v := 0; v < n; v++ {
		if len(got[v]) != len(want) {
			t.Fatalf("view %d saw %d rows, want %d", v, len(got[v]), len(want))
		}
		for i := range want {
			if got[v][i] != want[i] {
				t.Fatalf("view %d row %d differs", v, i)
			}
		}
	}
	if fds := p.openFDs.Load(); fds != 0 {
		t.Fatalf("%d spill fds still open after passes completed", fds)
	}
	p.mu.Lock()
	live := len(p.readers)
	p.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d pass readers still registered", live)
	}
}

// TestAbandonedPassReleasesFiles is the fd-leak regression test: a pass
// abandoned before the final row (the DMC-bitmap switch-over ends a
// replay early, or a consumer just stops) must not leave bucket files
// open once the view is released or the partition closed.
func TestAbandonedPassReleasesFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomMatrix(rng, 150, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), frameRows: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Abandon three passes mid-way: one released explicitly, one
	// dropped on the floor, one never read at all.
	rows := p.Pass().(*view)
	for i := 0; i < 10; i++ {
		rows.Row(i)
	}
	rows.Release()

	dropped := p.Pass()
	dropped.Row(0)
	_ = p.Pass()

	// Close must cancel the in-flight readers, wait for them, and
	// leave zero spill file handles open.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if fds := p.openFDs.Load(); fds != 0 {
		t.Fatalf("%d spill fds still open after Close", fds)
	}
	p.mu.Lock()
	live := len(p.readers)
	p.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d pass readers still registered after Close", live)
	}

	// A pass started after Close fails as a PassError, not a deadlock.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("pass after Close did not panic with PassError")
		} else if _, ok := r.(*PassError); !ok {
			t.Fatalf("panic value %T is not a PassError", r)
		}
	}()
	p.Pass().Row(0)
}

// TestStreamCounters extends the metrics coverage to the new frame and
// stall instruments.
func TestStreamCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randomMatrix(rng, 120, 16)
	path := writeTemp(t, m, matrix.ExtBinary)

	frames0 := metricFrames.Value()
	depth0 := metricBroadcastDepth.Value()
	if _, _, err := MineImplicationsCfg(path, core.FromPercent(80), core.Options{}, Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := metricFrames.Value() - frames0; got <= 0 {
		t.Fatalf("frames delta = %d, want > 0", got)
	}
	// The depth gauge must converge back to its pre-mine level once
	// all passes have drained (no queued frames leak from completed
	// passes; only a view abandoned without Release can strand one).
	if d := metricBroadcastDepth.Value() - depth0; d != 0 {
		t.Fatalf("broadcast depth delta = %v after mining, want 0", d)
	}
}

// TestPreparedParityAcrossWorkers: a core.PrepareSource memo over a
// partition serves every threshold, both families and the requests the
// memo does not serve (min support) with the in-memory miner's rule set,
// at one and two workers, as its slots fill and as they are read.
func TestPreparedParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	base := randomMatrix(rng, 300, 30)
	rows := make([][]matrix.Col, base.NumRows())
	for i := range rows {
		rows[i] = append([]matrix.Col(nil), base.Row(i)...)
		for j, c := range []matrix.Col{3, 9} {
			// A twin of column 3 and a part of column 9: 100% rules
			// for both families.
			if slices.Contains(base.Row(i), c) && (j == 0 || rng.Intn(3) > 0) {
				rows[i] = append(rows[i], matrix.Col(30+j))
			}
		}
	}
	m := matrix.FromRows(32, rows)
	path := writeTemp(t, m, matrix.ExtBinary)
	for _, w := range []int{1, 2} {
		p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), Workers: w, frameRows: 16})
		if err != nil {
			t.Fatal(err)
		}
		prep := core.PrepareSource(p, p.Ones())
		for _, pct := range []int{100, 80, 60, 90, 100} {
			for _, o := range []core.Options{{}, {MinSupport: 3}} {
				th := core.FromPercent(pct)
				var gotImp []rules.Implication
				var gotSim []rules.Similarity
				if err := core.CapturePass(func() {
					gotImp, _ = prep.Implications(th, o, w)
					gotSim, _ = prep.Similarities(th, o, w)
				}); err != nil {
					t.Fatal(err)
				}
				wantImp, _ := core.DMCImp(m, th, o)
				wantSim, _ := core.DMCSim(m, th, o)
				if d := rules.DiffImplications(gotImp, wantImp); d != "" {
					t.Fatalf("w%d %d%% minsupport %d: imp mismatch:\n%s", w, pct, o.MinSupport, d)
				}
				if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
					t.Fatalf("w%d %d%% minsupport %d: sim mismatch:\n%s", w, pct, o.MinSupport, d)
				}
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentPassOwnContexts: passes started with PassContext each
// observe their own context, never the one the partition was built
// under: a partition whose builder's context is done still replays, and
// cancelling one pass leaves a concurrent pass over the same segments
// intact.
func TestConcurrentPassOwnContexts(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := randomMatrix(rng, 400, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	built, cancelBuild := context.WithCancel(context.Background())
	p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), Ctx: built, frameRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cancelBuild()

	var want []string
	serial := p.PassContext(context.Background(), 1)[0]
	for i := 0; i < serial.Len(); i++ {
		want = append(want, key(serial.Row(i)))
	}
	ctxB, cancelB := context.WithCancel(context.Background())
	a := p.PassContext(context.Background(), 1)[0]
	b := p.PassContext(ctxB, 1)[0]
	got := []string{key(a.Row(0))}
	b.Row(0)
	cancelB()
	// Wait for b's reader to stop: a's reader stays, blocked on its ring.
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		live := len(p.readers)
		p.mu.Unlock()
		if live == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pass readers still running after one pass was cancelled", live)
		}
	}
	func() {
		defer func() {
			pe, ok := recover().(*PassError)
			if !ok || !errors.Is(pe, context.Canceled) {
				t.Fatalf("cancelled pass ended with %v, want a PassError for context.Canceled", pe)
			}
		}()
		for i := 1; i < b.Len(); i++ {
			b.Row(i)
		}
		t.Fatal("the cancelled pass read every row")
	}()
	for i := 1; i < a.Len(); i++ {
		got = append(got, key(a.Row(i)))
	}
	if !slices.Equal(got, want) {
		t.Fatal("the neighbour of a cancelled pass did not read every row in order")
	}
}
