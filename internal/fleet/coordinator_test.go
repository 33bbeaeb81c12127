package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/obs"
	"dmc/internal/rules"
	"dmc/internal/store"
)

// fakeWorker speaks the fleet worker protocol over httptest, mining
// shards for real with core so coordinator tests exercise true
// payloads, plus fault injection knobs for the retry paths.
type fakeWorker struct {
	mu       sync.Mutex
	datasets map[string]*matrix.Matrix // name -> replica
	hashes   map[string]string
	ids      map[string][]string // method -> X-Request-ID of each push (PUT) and shard post (POST)

	shed   atomic.Int64 // next N shard posts answer 503
	reject atomic.Bool  // every shard post answers 500 (final)
	abort  atomic.Int64 // next N shard posts die mid-response
	shards atomic.Int64 // served shard count
	pushed atomic.Int64 // replicas received
	ts     *httptest.Server
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	w := &fakeWorker{
		datasets: make(map[string]*matrix.Matrix),
		hashes:   make(map[string]string),
		ids:      make(map[string][]string),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+InfoPath, func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(Info{Status: "ready", CPUs: 1, Datasets: len(w.datasets)})
	})
	mux.HandleFunc("PUT "+DatasetsPath+"{name}", func(rw http.ResponseWriter, r *http.Request) {
		w.noteID(r)
		m, err := DecodeDataset(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		h, _ := store.ContentHash(m)
		w.mu.Lock()
		w.datasets[r.PathValue("name")] = m
		w.hashes[r.PathValue("name")] = h
		w.mu.Unlock()
		w.pushed.Add(1)
		rw.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("POST "+ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		w.noteID(r)
		if w.reject.Load() {
			http.Error(rw, "bad shard", http.StatusInternalServerError)
			return
		}
		if w.shed.Add(-1) >= 0 {
			http.Error(rw, "overloaded", http.StatusServiceUnavailable)
			return
		}
		var task Task
		if err := json.NewDecoder(r.Body).Decode(&task); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		m, ok := w.datasets[task.Dataset]
		h := w.hashes[task.Dataset]
		w.mu.Unlock()
		if !ok {
			http.Error(rw, "no dataset", http.StatusNotFound)
			return
		}
		if h != task.Hash {
			http.Error(rw, "stale replica", http.StatusConflict)
			return
		}
		if w.abort.Add(-1) >= 0 {
			panic(http.ErrAbortHandler) // worker dies mid-pass
		}
		w.shards.Add(1)
		opts := core.Options{
			MinSupport: task.MinSupport,
			Shard:      &core.ShardRange{Lo: task.ColLo, Hi: task.ColHi},
		}
		var buf bytes.Buffer
		if task.Mode == "imp" {
			rs, _ := core.DMCImp(m, core.FromPercent(task.Threshold), opts)
			rules.SortImplications(rs)
			rules.WriteImplications(&buf, rs)
		} else {
			rs, _ := core.DMCSim(m, core.FromPercent(task.Threshold), opts)
			rules.SortSimilarities(rs)
			rules.WriteSimilarities(&buf, rs)
		}
		rw.Header().Set(PayloadCRCHeader, PayloadCRC(buf.Bytes()))
		rw.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		rw.Write(buf.Bytes())
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

// noteID records the request id r carries.
func (w *fakeWorker) noteID(r *http.Request) {
	w.mu.Lock()
	w.ids[r.Method] = append(w.ids[r.Method], r.Header.Get(obs.RequestIDHeader))
	w.mu.Unlock()
}

func (w *fakeWorker) hold(name string, m *matrix.Matrix) {
	h, _ := store.ContentHash(m)
	w.mu.Lock()
	w.datasets[name] = m
	w.hashes[name] = h
	w.mu.Unlock()
}

func testMatrix(t *testing.T, seed int64, rows, cols int) *matrix.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := matrix.NewBuilder(cols)
	for i := 0; i < rows; i++ {
		var row []matrix.Col
		for c := 0; c < cols; c++ {
			if rng.Intn(3) == 0 {
				row = append(row, matrix.Col(c))
			}
		}
		b.AddRow(row)
	}
	return b.Build()
}

func testFleet(t *testing.T, workers []*fakeWorker) *Coordinator {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	reg, err := NewRegistry(urls, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return NewCoordinator(reg, Options{})
}

func testRef(t *testing.T, m *matrix.Matrix) DatasetRef {
	t.Helper()
	h, err := store.ContentHash(m)
	if err != nil {
		t.Fatal(err)
	}
	return DatasetRef{Name: "d", Hash: h, M: m}
}

// TestForwardsRequestID: a replica push and a shard task carry the
// request id of the mine that sent them, so one id names the request on
// every node it reached; a mine without an id sends none.
func TestForwardsRequestID(t *testing.T) {
	m := testMatrix(t, 3, 40, 12)
	for _, id := range []string{"req-7f3a", ""} {
		w := newFakeWorker(t) // holds no replica: the mine pushes one first
		c := testFleet(t, []*fakeWorker{w})
		ctx := context.Background()
		if id != "" {
			ctx = obs.WithRequestID(ctx, id)
		}
		if _, _, err := c.MineImplications(ctx, testRef(t, m), Params{ThresholdPercent: 70}); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		pushes, shards := w.ids[http.MethodPut], w.ids[http.MethodPost]
		w.mu.Unlock()
		if len(pushes) == 0 || len(shards) == 0 {
			t.Fatalf("worker saw %d pushes and %d shard posts, want both", len(pushes), len(shards))
		}
		for _, got := range append(pushes, shards...) {
			if got != id {
				t.Fatalf("mine with request id %q: worker saw %q (pushes %q, shards %q)", id, got, pushes, shards)
			}
		}
	}
}

// The core contract: a fleet mine over any worker count returns the
// exact single-node rule set, already canonically sorted.
func TestCoordinatorParity(t *testing.T) {
	m := testMatrix(t, 1, 60, 24)
	for _, nw := range []int{1, 2, 4} {
		workers := make([]*fakeWorker, nw)
		for i := range workers {
			workers[i] = newFakeWorker(t)
			workers[i].hold("d", m)
		}
		c := testFleet(t, workers)
		ref := testRef(t, m)
		p := Params{ThresholdPercent: 70}

		imps, st, err := c.MineImplications(context.Background(), ref, p)
		if err != nil {
			t.Fatalf("%d workers: %v", nw, err)
		}
		if st.Nodes != nw || st.Shards != nw || st.Requeues != 0 {
			t.Fatalf("%d workers: stats %+v", nw, st)
		}
		wantImp := core.NaiveImplications(m, core.FromPercent(70))
		rules.SortImplications(wantImp)
		if d := rules.DiffImplications(imps, wantImp); d != "" {
			t.Fatalf("%d workers: imp parity: %s", nw, d)
		}

		sims, _, err := c.MineSimilarities(context.Background(), ref, p)
		if err != nil {
			t.Fatalf("%d workers: %v", nw, err)
		}
		wantSim := core.NaiveSimilarities(m, core.FromPercent(70))
		rules.SortSimilarities(wantSim)
		if d := rules.DiffSimilarities(sims, wantSim); d != "" {
			t.Fatalf("%d workers: sim parity: %s", nw, d)
		}
	}
}

// A worker that has never seen the dataset gets the replica pushed and
// serves the shard on the second try, without consuming a requeue.
func TestCoordinatorPushesStaleReplica(t *testing.T) {
	m := testMatrix(t, 2, 40, 16)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.hold("d", m) // w2 is empty
	c := testFleet(t, []*fakeWorker{w1, w2})

	imps, st, err := c.MineImplications(context.Background(), testRef(t, m), Params{ThresholdPercent: 80})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pushes != 1 || w2.pushed.Load() != 1 {
		t.Fatalf("stats %+v, w2 pushes %d; want one replica push", st, w2.pushed.Load())
	}
	if st.Requeues != 0 {
		t.Fatalf("push consumed a requeue: %+v", st)
	}
	want := core.NaiveImplications(m, core.FromPercent(80))
	rules.SortImplications(want)
	if d := rules.DiffImplications(imps, want); d != "" {
		t.Fatal(d)
	}
}

// A worker dying mid-pass (connection severed) requeues its shard to
// the sibling; the merged result is still exact.
func TestCoordinatorRequeuesDeadWorker(t *testing.T) {
	m := testMatrix(t, 3, 50, 20)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.hold("d", m)
	w2.hold("d", m)
	w1.abort.Store(1) // first shard attempt on w1 dies mid-response
	c := testFleet(t, []*fakeWorker{w1, w2})

	sims, st, err := c.MineSimilarities(context.Background(), testRef(t, m), Params{ThresholdPercent: 60})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requeues == 0 {
		t.Fatalf("dead worker did not requeue: %+v", st)
	}
	want := core.NaiveSimilarities(m, core.FromPercent(60))
	rules.SortSimilarities(want)
	if d := rules.DiffSimilarities(sims, want); d != "" {
		t.Fatal(d)
	}
}

// Overload sheds (503) are retryable: the shard lands on the sibling.
func TestCoordinatorRequeuesShedWorker(t *testing.T) {
	m := testMatrix(t, 4, 40, 12)
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	w1.hold("d", m)
	w2.hold("d", m)
	w1.shed.Store(1)
	c := testFleet(t, []*fakeWorker{w1, w2})

	imps, st, err := c.MineImplications(context.Background(), testRef(t, m), Params{ThresholdPercent: 75})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requeues == 0 {
		t.Fatalf("shed worker did not requeue: %+v", st)
	}
	want := core.NaiveImplications(m, core.FromPercent(75))
	rules.SortImplications(want)
	if d := rules.DiffImplications(imps, want); d != "" {
		t.Fatal(d)
	}
}

// A hard rejection (500) is final: no other node would answer
// differently, so the mine fails fast with the node's message.
func TestCoordinatorHardRejectionIsFinal(t *testing.T) {
	m := testMatrix(t, 5, 30, 10)
	w := newFakeWorker(t)
	w.hold("d", m)
	w.reject.Store(true)
	c := testFleet(t, []*fakeWorker{w})

	_, _, err := c.MineImplications(context.Background(), testRef(t, m), Params{ThresholdPercent: 80})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want ShardError, got %v", err)
	}
	if se.Status != http.StatusInternalServerError {
		t.Fatalf("ShardError status %d", se.Status)
	}
}

// All nodes down after retries exhaust -> the mine fails; and with an
// empty healthy set it fails with ErrNoNodes before planning.
func TestCoordinatorExhaustsRetries(t *testing.T) {
	m := testMatrix(t, 6, 30, 10)
	w := newFakeWorker(t)
	w.hold("d", m)
	w.shed.Store(100)
	c := testFleet(t, []*fakeWorker{w})

	if _, _, err := c.MineImplications(context.Background(), testRef(t, m), Params{ThresholdPercent: 80}); err == nil {
		t.Fatal("mine succeeded against a permanently shedding fleet")
	}
	// After the sheds, the node is marked down -> ErrNoNodes.
	if _, _, err := c.MineImplications(context.Background(), testRef(t, m), Params{ThresholdPercent: 80}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("want ErrNoNodes, got %v", err)
	}
}

func TestRegistryProbe(t *testing.T) {
	w := newFakeWorker(t)
	reg, err := NewRegistry([]string{w.ts.URL, "http://127.0.0.1:1"}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	_ = reg.ProbeAll(context.Background()) // dead node errors, live node refreshes
	if h := reg.Healthy(); len(h) != 1 || h[0].Name() != w.ts.Listener.Addr().String() {
		t.Fatalf("healthy = %v", h)
	}
	if reg.Nodes()[0].CPUs() != 1 {
		t.Fatalf("probe did not record capacity: %d", reg.Nodes()[0].CPUs())
	}
}

// Close must not hang when Start was never called, and must be
// idempotent when it was.
func TestRegistryCloseWithoutStart(t *testing.T) {
	reg, err := NewRegistry([]string{"http://127.0.0.1:1"}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	reg.Close()

	reg2, err := NewRegistry([]string{"http://127.0.0.1:1"}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	reg2.Start(time.Millisecond)
	reg2.Close()
	reg2.Close()
}
