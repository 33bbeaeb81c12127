package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"dmc/internal/gen"
	"dmc/internal/matrix"
)

// key is one mine request: a rule family and a threshold in percent.
type key struct {
	mode      string // "imp" or "sim"
	threshold int
}

func (k key) String() string { return fmt.Sprintf("%s@%d", k.mode, k.threshold) }

// path is the request path mining k on dataset name.
func (k key) path(name string) string {
	ep := "implications"
	if k.mode == "sim" {
		ep = "similarities"
	}
	return fmt.Sprintf("/v1/datasets/%s/%s?threshold=%d&limit=%d", name, ep, k.threshold, noLimit)
}

// noLimit is the limit every mine asks for: far above any rule count the
// workloads produce, so no response is truncated (which the oracle
// asserts).
const noLimit = 1 << 30

// keys are every workload's mines, which the client cycles through:
// implications at thresholds 55 to 90 and similarities at 60 to 90, in
// steps of 5. A key's replies cost about the same each time, so the
// sorted latencies of a run are a staircase, one step per key. Between
// two steps the nearest-rank percentile is the slowest sample of one key
// or the fastest of the next, and swings between them. Fifteen keys put
// p50 at the middle of the 8th step and p90 at the middle of the 14th,
// where each is the median of one key's samples. With 18 keys the p50
// sat between two steps; with Zipf(1.1) draws the steps took the draws'
// shares, and the p50 of cache-hot jumped between 1.6 and 2.2ms.
var keys = func() []key {
	ks := []key{{"imp", 55}}
	for t := 60; t <= 90; t += 5 {
		ks = append(ks, key{"imp", t}, key{"sim", t})
	}
	return ks
}()

// workload is one traffic mix against one server configuration, driven
// by a single closed-loop client. Why each was chosen is recorded beside
// its name in BENCHMARK.json.
type workload struct {
	name     string
	streamed bool // the dataset is a .dmb file registered with AddFile
	cache    bool // the server has a result cache
	appends  bool // the client alternates row appends to a durable dataset with mines
}

var workloads = []*workload{
	{name: "scan-resident"},
	{name: "scan-streamed", streamed: true},
	{name: "cache-hot", cache: true},
	{name: "append-mix", cache: true, appends: true},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// datasetName is the name every workload serves its data under.
const datasetName = "bench"

// batchRows is the row count of one append batch.
const batchRows = 128

// inputs is everything a run feeds the server, generated from the seed
// before any clock starts.
type inputs struct {
	// m is the bench's own copy of the served matrix: parsed from body
	// exactly as the server parses the PUT, so column ids agree.
	m        *matrix.Matrix
	body     []byte // basket text PUT to the server
	file     string // m saved as .dmb (scan-streamed)
	fileSize int64
	// batches are append-mix's basket bodies: batches[0] is the warm
	// append, then the measured writer's, then the traced run's.
	batches [][]byte
}

// makeInputs generates the workload's data from gen.Bench. Columns are
// labelled i<id> so the basket text round-trips; append batches are
// drawn from gen.Bench with seed+1 over the same labels.
func makeInputs(w *workload, cfg runConfig) (*inputs, error) {
	raw := gen.Bench(gen.Config{Scale: cfg.scale, Seed: cfg.seed})
	label(raw)
	var body bytes.Buffer
	if err := matrix.WriteBaskets(&body, raw); err != nil {
		return nil, err
	}
	m, err := matrix.ReadBaskets(bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, err
	}
	in := &inputs{m: m, body: body.Bytes()}
	if w.streamed {
		in.file = filepath.Join(cfg.dir, datasetName+matrix.ExtBinary)
		if err := matrix.Save(in.file, m); err != nil {
			return nil, err
		}
		fi, err := os.Stat(in.file)
		if err != nil {
			return nil, err
		}
		in.fileSize = fi.Size()
	}
	if w.appends {
		src := gen.Bench(gen.Config{Scale: cfg.scale, Seed: cfg.seed + 1})
		label(src)
		n := 1 + cfg.appendBatches + cfg.traceOps/2
		for b, next := 0, 0; b < n; b++ {
			var buf bytes.Buffer
			for r := 0; r < batchRows; r++ {
				for j, c := range src.Row(next) {
					if j > 0 {
						buf.WriteByte(' ')
					}
					buf.WriteString(src.Label(c))
				}
				buf.WriteByte('\n')
				next = (next + 1) % src.NumRows()
			}
			in.batches = append(in.batches, buf.Bytes())
		}
	}
	return in, nil
}

func label(m *matrix.Matrix) {
	ls := make([]string, m.NumCols())
	for c := range ls {
		ls[c] = "i" + strconv.Itoa(c)
	}
	m.SetLabels(ls)
}

// streamedLabel is how the server names the columns of a file-backed
// dataset, which never carries labels.
func streamedLabel(c matrix.Col) string { return fmt.Sprintf("c%d", c) }

// labeler returns how the server labels w's columns.
func (in *inputs) labeler(w *workload) func(matrix.Col) string {
	if w.streamed {
		return streamedLabel
	}
	return in.m.Label
}
