package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dmc/internal/cache"
	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// encodeReply is the mine reply as handleMine built it before the
// appender: wire structs through writeJSON's encoder. It is the
// reference for appendMineReply's bytes.
func encodeReply[R, W any](t testing.TB, pl *pipeline[R, W], head MineResponse[W], rs []R, limit int, label func(matrix.Col) string) []byte {
	head.Total = len(rs)
	for i, r := range rs {
		if i == limit {
			head.Truncated = true
			break
		}
		head.Rules = append(head.Rules, pl.wire(label, r))
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(head); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkReply[R, W any](t testing.TB, pl *pipeline[R, W], head MineResponse[W], rs []R, limit int, label func(matrix.Col) string) {
	t.Helper()
	want := encodeReply(t, pl, head, rs, limit, label)
	if got := appendMineReply([]byte("kept"), pl, head, rs, limit, label); !bytes.Equal(got[4:], want) || string(got[:4]) != "kept" {
		t.Fatalf("%s reply, limit %d:\n got %q\nwant %q", pl.name, limit, got, want)
	}
}

// replySources is every source a mine reply can carry.
var replySources = []string{"", "cache", "incremental", "fleet"}

// TestMineReplyMatchesEncodingJSON: the appended reply is byte for byte
// what encoding/json's indented encoder writes for the same
// MineResponse, for empty and truncated rule lists, every source, labels
// that need escaping, confidences and similarities across float64's
// formats, and the c<id> labels of file-backed datasets.
func TestMineReplyMatchesEncodingJSON(t *testing.T) {
	labels := []string{
		"plain", `say "hi"`, `back\slash`, "<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "bad\xff\xfeutf8", "cut\xe2\x80", "\u2028line\u2029para",
		"caf\u00e9", "\u65e5\u672c\u8a9e", "\U0001F600", "",
		"surrogate\xed\xa0\x80", "past U+10FFFF \xf4\x90\x80\x80",
	}
	named := func(c matrix.Col) string { return labels[c] }
	fileBacked := (&dataset{}).label
	// Confidences 1, 17/20, 1/3 and 2^30/(2^31-1), 0, and one below 1e-6
	// (written in exponent form); similarities likewise.
	imps := []rules.Implication{
		{From: 0, To: 1, Hits: 20, Ones: 20},
		{From: 2, To: 3, Hits: 17, Ones: 20},
		{From: 4, To: 5, Hits: 1, Ones: 3},
		{From: 6, To: 7, Hits: 1 << 30, Ones: 1<<31 - 1},
		{From: 8, To: 9, Hits: 0, Ones: 5},
		{From: 10, To: 11, Hits: 1, Ones: 1 << 21},
		{From: 12, To: 13, Hits: 2, Ones: 3},
	}
	sims := []rules.Similarity{
		{A: 0, B: 1, Hits: 4, OnesA: 4, OnesB: 4},
		{A: 2, B: 3, Hits: 17, OnesA: 17, OnesB: 20},
		{A: 4, B: 5, Hits: 1, OnesA: 2, OnesB: 2},
		{A: 6, B: 7, Hits: 1 << 30, OnesA: 1 << 30, OnesB: 1<<31 - 1},
		{A: 8, B: 9, Hits: 0, OnesA: 3, OnesB: 3},
		{A: 10, B: 11, Hits: 1, OnesA: 1, OnesB: 1 << 21},
		{A: 12, B: 13, Hits: 2, OnesA: 2, OnesB: 3},
	}
	for _, source := range replySources {
		for _, limit := range []int{1, len(imps) - 1, len(imps), 100} {
			head := MineResponse[ImplicationWire]{Dataset: "d<&>", Threshold: 85, ElapsedMS: 12, Source: source}
			checkReply(t, &impPipeline, head, imps, limit, named)
			checkReply(t, &impPipeline, head, nil, limit, named)
			simHead := MineResponse[SimilarityWire]{Dataset: "d", Threshold: 1, Source: source}
			checkReply(t, &simPipeline, simHead, sims, limit, named)
			checkReply(t, &simPipeline, simHead, nil, limit, named)
		}
	}
	cols := []matrix.Col{0, 7, 10, 4294967295}
	fileImps := []rules.Implication{{From: cols[0], To: cols[3], Hits: 1, Ones: 2}, {From: cols[1], To: cols[2], Hits: 3, Ones: 3}}
	fileSims := []rules.Similarity{{A: cols[3], B: cols[0], Hits: 1, OnesA: 2, OnesB: 3}}
	checkReply(t, &impPipeline, MineResponse[ImplicationWire]{Dataset: "f"}, fileImps, 100, fileBacked)
	checkReply(t, &simPipeline, MineResponse[SimilarityWire]{Dataset: "f"}, fileSims, 100, fileBacked)
	for _, c := range cols {
		if got, want := fileBacked(c), fmt.Sprintf("c%d", c); got != want {
			t.Fatalf("file-backed label of %d = %q, want %q", c, got, want)
		}
	}
}

// FuzzMineReply makes TestMineReplyMatchesEncodingJSON's comparison over
// arbitrary labels, dataset names, counts, limits and sources.
func FuzzMineReply(f *testing.F) {
	f.Add("bench", "i1", "i2", int64(17), int64(20), int64(20), uint8(0), uint8(1), uint16(85))
	f.Add("<d>", "\"\\", "\u2028\xff", int64(1<<30), int64(1<<31-1), int64(3), uint8(2), uint8(0), uint16(0))
	f.Add("", "", "\u00e9\x00", int64(1), int64(1<<21), int64(-4), uint8(3), uint8(3), uint16(100))
	f.Fuzz(func(t *testing.T, dataset, la, lb string, hits, ones, onesB int64, limit, source uint8, threshold uint16) {
		label := func(c matrix.Col) string {
			if c == 0 {
				return la
			}
			return lb
		}
		imps := []rules.Implication{
			{From: 0, To: 1, Hits: int(hits), Ones: int(ones)},
			{From: 1, To: 0, Hits: int(hits), Ones: int(onesB)},
			{From: 0, To: 0, Hits: int(ones), Ones: int(hits)},
		}
		sims := []rules.Similarity{
			{A: 0, B: 1, Hits: int(hits), OnesA: int(ones), OnesB: int(onesB)},
			{A: 1, B: 0, Hits: int(ones), OnesA: int(hits), OnesB: int(hits)},
		}
		n := int(limit%4) + 1
		src := replySources[int(source)%len(replySources)]
		checkReply(t, &impPipeline, MineResponse[ImplicationWire]{Dataset: dataset, Threshold: int(threshold), ElapsedMS: hits, Source: src}, imps, n, label)
		checkReply(t, &simPipeline, MineResponse[SimilarityWire]{Dataset: dataset, Threshold: int(threshold), ElapsedMS: ones, Source: src}, sims, n, label)
	})
}

// replyKey is one of the load benchmark's keys served as a cache hit,
// split into the steps of handleMine after the cache lookup.
type replyKey struct {
	name                 string
	path                 string
	decode, sort, render func()
}

func newReplyKey[R, W any](b *testing.B, pl *pipeline[R, W], name, path string, pct int, rs []R, label func(matrix.Col) string) replyKey {
	pl.canon(rs)
	var payload bytes.Buffer
	if err := pl.write(&payload, rs); err != nil {
		b.Fatal(err)
	}
	wire := append([]R(nil), rs...)
	pl.wireSort(wire)
	scratch := make([]R, len(rs))
	var out []byte
	head := MineResponse[W]{Dataset: "bench", Threshold: pct, Source: "cache"}
	return replyKey{
		name: name,
		path: path,
		decode: func() {
			if _, err := pl.read(bytes.NewReader(payload.Bytes())); err != nil {
				b.Fatal(err)
			}
		},
		sort: func() {
			copy(scratch, rs)
			pl.wireSort(scratch)
		},
		render: func() { out = appendMineReply(out[:0], pl, head, wire, math.MaxInt32, label) },
	}
}

// BenchmarkMineReply serves the load benchmark's 15 keys (implications
// at 55 to 90, similarities at 60 to 90, in steps of 5) as result-cache
// hits over its data, gen.Bench at scale 1/8 with i<id> labels, as
// cache-hot does. One op is the 15 keys. decode reads each key's cached
// payload, sort puts its rules into wire order, render appends its
// reply, and hit serves the whole request through the handler from an
// in-memory request to a recorded response. us/imp85 and us/imp60 are
// the keys at cache-hot's p50 and p90 steps.
func BenchmarkMineReply(b *testing.B) {
	m := benchMatrix(1)
	c, err := cache.Open(b.TempDir(), cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// dmcserve's defaults, with its log lines formatted and dropped.
	s := NewWith(Config{
		Cache:              c,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		MaxConcurrentMines: runtime.GOMAXPROCS(0),
		RequestTimeout:     2 * time.Minute,
	})
	s.Add("bench", m)
	h := s.Handler()
	prep := core.Prepare(m)
	var keys []replyKey
	for pct := 55; pct <= 90; pct += 5 {
		th := core.FromPercent(pct)
		imps, _ := prep.Implications(th, core.Options{}, 1)
		path := fmt.Sprintf("/v1/datasets/bench/implications?threshold=%d&limit=%d", pct, math.MaxInt32)
		keys = append(keys, newReplyKey(b, &impPipeline, "imp"+strconv.Itoa(pct), path, pct, imps, m.Label))
		if pct == 55 {
			continue
		}
		sims, _ := prep.Similarities(th, core.Options{}, 1)
		path = fmt.Sprintf("/v1/datasets/bench/similarities?threshold=%d&limit=%d", pct, math.MaxInt32)
		keys = append(keys, newReplyKey(b, &simPipeline, "sim"+strconv.Itoa(pct), path, pct, sims, m.Label))
	}
	serve := func(k replyKey) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, k.path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", k.name, rec.Code, rec.Body.Bytes())
		}
	}
	for _, k := range keys {
		serve(k) // fills the cache
	}
	for _, step := range []struct {
		name string
		run  func(replyKey)
	}{
		{"decode", func(k replyKey) { k.decode() }},
		{"sort", func(k replyKey) { k.sort() }},
		{"render", func(k replyKey) { k.render() }},
		{"hit", serve},
	} {
		b.Run(step.name, func(b *testing.B) {
			perKey := make([]time.Duration, len(keys))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, k := range keys {
					start := time.Now()
					step.run(k)
					perKey[j] += time.Since(start)
				}
			}
			for j, k := range keys {
				if k.name == "imp85" || k.name == "imp60" {
					b.ReportMetric(float64(perKey[j].Microseconds())/float64(b.N), "us/"+k.name)
				}
			}
		})
	}
}
