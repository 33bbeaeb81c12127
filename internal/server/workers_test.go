package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/fleet"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

// withProcs runs the rest of the test at GOMAXPROCS n, so the default
// worker count does not depend on the machine running it.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// workerLog records the worker counts the engine seams are handed.
type workerLog struct {
	mu  sync.Mutex
	got []int
}

func (l *workerLog) add(w int) {
	l.mu.Lock()
	l.got = append(l.got, w)
	l.mu.Unlock()
}

// none fails t if any count was recorded.
func (l *workerLog) none(t *testing.T, what string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.got) != 0 {
		t.Fatalf("%s: engine ran with workers %v", what, l.got)
	}
}

// only fails t unless at least one count was recorded and every one is
// want.
func (l *workerLog) only(t *testing.T, what string, want int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.got) == 0 {
		t.Fatalf("%s: the engine never ran", what)
	}
	for _, w := range l.got {
		if w != want {
			t.Fatalf("%s: engine got workers %v, want %d", what, l.got, want)
		}
	}
	l.got = nil
}

// recordResident swaps s's resident engines for the real ones behind a
// recorder of their workers argument.
func recordResident(s *Server) *workerLog {
	log := &workerLog{}
	s.imps.resident = func(p *core.Prepared, th core.Threshold, o core.Options, w int) ([]rules.Implication, core.Stats, error) {
		log.add(w)
		return residentEngine((*core.Prepared).Implications)(p, th, o, w)
	}
	s.sims.resident = func(p *core.Prepared, th core.Threshold, o core.Options, w int) ([]rules.Similarity, core.Stats, error) {
		log.add(w)
		return residentEngine((*core.Prepared).Similarities)(p, th, o, w)
	}
	return log
}

// autoServer is a cacheless server over the baskets dataset with its
// resident engines recorded.
func autoServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *workerLog) {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	s := NewWith(cfg)
	s.Add("baskets", mustParseBaskets(t, "bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\ncoffee tea\n"))
	log := recordResident(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, log
}

// TestAutoWorkersIdleSlots: a mine that names no workers takes its own
// slot plus one idle one (autoWidth), capped at GOMAXPROCS, for both
// families.
func TestAutoWorkersIdleSlots(t *testing.T) {
	for _, tc := range []struct{ slots, procs, want int }{
		{2, 4, 2},
		{8, 3, 2},
		{8, 1, 1},
		{1, 4, 1},
	} {
		withProcs(t, tc.procs)
		_, ts, log := autoServer(t, Config{MaxConcurrentMines: tc.slots})
		for _, q := range []string{"implications?threshold=80", "similarities?threshold=60"} {
			getJSON(t, ts.URL+"/v1/datasets/baskets/"+q, http.StatusOK, nil)
			log.only(t, q, tc.want)
		}
	}
}

// TestAutoWorkersBusySlots: with every other slot held, no limiter, or
// a memory budget to split, a mine that names no workers runs one. Each
// mine of a server asks for a lower threshold than the last, so the
// memo cannot serve it.
func TestAutoWorkersBusySlots(t *testing.T) {
	withProcs(t, 4)
	const q, below = "/v1/datasets/baskets/implications?threshold=80", "/v1/datasets/baskets/implications?threshold=70"

	s, ts, log := autoServer(t, Config{MaxConcurrentMines: 3})
	var releases []func()
	for range 2 {
		release, shed := s.adm.acquire(context.Background(), defaultTenant)
		if shed != nil {
			t.Fatalf("holding a slot: %+v", shed)
		}
		releases = append(releases, release)
	}
	getJSON(t, ts.URL+q, http.StatusOK, nil)
	log.only(t, "two of three slots held", 1)
	releases[0]()
	getJSON(t, ts.URL+below, http.StatusOK, nil)
	log.only(t, "one of three slots held", 2)
	releases[1]()

	_, ts, log = autoServer(t, Config{})
	getJSON(t, ts.URL+q, http.StatusOK, nil)
	log.only(t, "no limiter", 1)

	_, ts, log = autoServer(t, Config{MaxConcurrentMines: 4, MemBudgetBytes: 1 << 30})
	getJSON(t, ts.URL+q, http.StatusOK, nil)
	log.only(t, "memory budget", 1)
}

// TestAutoWorkersHoldSlots: the idle slot a mine that names no workers
// runs its second worker on is held until the scan ends. A mine that
// arrives meanwhile queues for it instead of running beside the scan,
// and once both are done every slot is free.
func TestAutoWorkersHoldSlots(t *testing.T) {
	withProcs(t, 4)
	s, ts, _ := autoServer(t, Config{MaxConcurrentMines: 2})
	entered, unblock := make(chan int, 2), make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(unblock) }) }
	defer release() // a failed check must not leave a mine blocked
	s.imps.resident = func(p *core.Prepared, th core.Threshold, o core.Options, w int) ([]rules.Implication, core.Stats, error) {
		entered <- w
		<-unblock
		return residentEngine((*core.Prepared).Implications)(p, th, o, w)
	}
	statuses := make(chan int, 2)
	get := func(q string) {
		resp, err := http.Get(ts.URL + "/v1/datasets/baskets/implications?" + q)
		if err != nil {
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go get("threshold=80")
	if w := <-entered; w != 2 {
		t.Fatalf("first mine ran %d workers, want 2", w)
	}
	go get("threshold=70&workers=1")
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second mine did not queue behind the borrowed slot (queue %d)", s.adm.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if w := <-entered; w != 1 {
		t.Fatalf("second mine ran %d workers, want 1", w)
	}
	for range 2 {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("mine status %d, want 200", st)
		}
	}
	n, done := s.adm.borrow(2)
	done()
	if n != 2 {
		t.Fatalf("%d of 2 slots free after both mines", n)
	}
}

// TestAutoWorkersExplicit: a workers value the request names reaches
// the engine unchanged whatever the idle slots, and a bad one is still
// refused. Each round mines lower thresholds than the last, so the memo
// cannot serve them.
func TestAutoWorkersExplicit(t *testing.T) {
	withProcs(t, 4)
	_, ts, log := autoServer(t, Config{MaxConcurrentMines: 4})
	for i, w := range []int{1, 3, 0} {
		for _, q := range []string{
			fmt.Sprintf("implications?threshold=%d", 80-10*i),
			fmt.Sprintf("similarities?threshold=%d", 60-10*i),
		} {
			getJSON(t, ts.URL+"/v1/datasets/baskets/"+q+"&workers="+strconv.Itoa(w), http.StatusOK, nil)
			log.only(t, q, w)
		}
	}
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?workers=-1", http.StatusBadRequest, nil)
}

// TestAutoWorkersStreamedScans: file-backed datasets and brownout
// degrades stream at one worker when the request names none. A
// file-backed mine replays its kept partition through the Prepared
// engine; a brownout streams through the file engine, and the resident
// engine never runs for it.
func TestAutoWorkersStreamedScans(t *testing.T) {
	withProcs(t, 4)
	s, ts, resident := autoServer(t, Config{MaxConcurrentMines: 4, BrownoutBytes: 1})
	streamed := &workerLog{}
	s.imps.file = func(path string, th core.Threshold, o core.Options, cfg stream.Config) ([]rules.Implication, core.Stats, error) {
		streamed.add(cfg.Workers)
		return stream.MineImplicationsCfg(path, th, o, cfg)
	}
	path := filepath.Join(t.TempDir(), "f.dmb")
	if err := matrix.Save(path, mustParseBaskets(t, "a b\na b c\nb c\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFile("f", path); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/datasets/f/implications?threshold=60", http.StatusOK, nil)
	resident.only(t, "file-backed", 1)
	streamed.none(t, "file-backed")

	s.resident.Store(1 << 20) // another resident mine holds the ledger
	getJSON(t, ts.URL+"/v1/datasets/baskets/implications?threshold=60", http.StatusOK, nil)
	streamed.only(t, "brownout", 1)
	resident.none(t, "resident engine")
}

// TestAutoWorkersFleetForward: a ?fleet=1 mine that names no workers
// sends its shard tasks workers=1, which the nodes run as given even
// with idle slots of their own.
func TestAutoWorkersFleetForward(t *testing.T) {
	withProcs(t, 4)
	log := &workerLog{}
	var urls []string
	for range 2 {
		ws := NewWith(Config{FleetWorker: true, MaxConcurrentMines: 4, Registry: obs.NewRegistry()})
		ws.imps.resident = func(p *core.Prepared, th core.Threshold, o core.Options, w int) ([]rules.Implication, core.Stats, error) {
			log.add(w)
			return residentEngine((*core.Prepared).Implications)(p, th, o, w)
		}
		ts := httptest.NewServer(ws.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	reg, err := fleet.NewRegistry(urls, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	cs := NewWith(Config{Fleet: fleet.NewCoordinator(reg, fleet.Options{}), MaxConcurrentMines: 4, Registry: obs.NewRegistry()})
	cs.Add("d", mustParseBaskets(t, "bread butter jam\nbread butter\nbread butter coffee\nbread butter jam\nbread coffee\ncoffee tea\n"))
	coordResident := recordResident(cs)
	ts := httptest.NewServer(cs.Handler())
	t.Cleanup(ts.Close)
	getJSON(t, ts.URL+"/v1/datasets/d/implications?threshold=60&fleet=1", http.StatusOK, nil)
	log.only(t, "shard tasks", 1)
	coordResident.none(t, "coordinator")
}
