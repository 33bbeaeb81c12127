package exp

import (
	"fmt"
	"os"
	"path/filepath"

	"dmc/internal/core"
	"dmc/internal/gen"
	"dmc/internal/matrix"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

func init() {
	register(Experiment{
		ID:     "ablations",
		Title:  "Ablations: each §4/§5 design choice on and off",
		Expect: "sparsest-first cuts peak memory vs densest-first; the 100%-phase split shrinks the counting phase's work; disabling DMC-bitmap explodes tail memory; each similarity pruning pays for itself",
		Run:    runAblations,
	})
}

func runAblations(cfg Config) *Result {
	res := &Result{ID: "ablations"}
	wlog := dataset("Wlog", cfg)
	news := dataset("News", cfg)

	// Row re-ordering (§4.1): peak counting-phase memory by scan order.
	order := &Table{
		Title:   "Row re-ordering (§4.1): DMC-imp on Wlog at 85%, by scan order",
		Columns: []string{"order", "time (ms)", "peak counter memory"},
	}
	for _, kind := range []core.OrderKind{core.OrderSparsestFirst, core.OrderOriginal, core.OrderDensestFirst} {
		st := core.DMCImpEach(wlog.M, core.FromPercent(85), core.Options{Order: kind, DisableBitmap: true}, func(rules.Implication) {})
		order.AddRow(kind.String(), st.Total.Milliseconds(), kb(st.PeakCounterBytes))
	}
	res.Tables = append(res.Tables, order)

	// 100%-rule pruning (§4.3): pipeline vs a single general scan.
	split := &Table{
		Title:   "100%-rule pruning (§4.3): DMC-imp on News at 85%, pipeline vs single scan",
		Columns: []string{"variant", "time (ms)", "peak counter memory", "candidates added"},
	}
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"pipeline (100% phase + cutoff)", core.Options{}},
		{"single general scan", core.Options{SingleScan: true}},
	} {
		st := core.DMCImpEach(news.M, core.FromPercent(85), v.opts, func(rules.Implication) {})
		split.AddRow(v.name, st.Total.Milliseconds(), kb(st.PeakCounterBytes), st.CandidatesAdded)
	}
	res.Tables = append(res.Tables, split)

	// Memory-explosion elimination (§4.2): bitmap switch on vs off.
	bm := &Table{
		Title:   "DMC-bitmap (§4.2): DMC-imp on Wlog at 90%, switch on vs off",
		Columns: []string{"variant", "time (ms)", "peak counter memory", "switched at row"},
	}
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"bitmap enabled", bitmapOptions(wlog.M)},
		{"bitmap disabled", core.Options{DisableBitmap: true}},
	} {
		st := core.DMCImpEach(wlog.M, core.FromPercent(90), v.opts, func(rules.Implication) {})
		sw := "never"
		if st.SwitchPos100 >= 0 || st.SwitchPosLT >= 0 {
			sw = fmt.Sprintf("%d/%d", st.SwitchPos100, st.SwitchPosLT)
		}
		bm.AddRow(v.name, st.Total.Milliseconds(), kb(st.PeakCounterBytes), sw)
	}
	bm.Note("the paper's trade: the bitmap endgame caps memory at the price of time on the tail rows")
	res.Tables = append(res.Tables, bm)

	// Parallel scaling (§7): workers vs wall time on the counting phase.
	par := &Table{
		Title:   "Parallel DMC (§7): DMC-imp on News at 75% by worker count",
		Columns: []string{"workers", "time (ms)", "rules"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		_, st := core.DMCImpParallel(news.M, core.FromPercent(75), core.Options{}, w)
		par.AddRow(w, st.Total.Milliseconds(), st.NumRules)
	}
	par.Note("every worker reads all rows (the scan is shared), so wall-clock speedup appears only when candidate-list work dominates the scan — large data, low thresholds; what always divides is the counter memory")
	res.Tables = append(res.Tables, par)

	// Disk-backed two-pass operation: the streamed pipeline pays disk
	// replay per phase but never holds the matrix.
	if tbl, err := runStreamAblation(news); err == nil {
		res.Tables = append(res.Tables, tbl)
	} else {
		res.Tables = append(res.Tables, &Table{
			Title:   "Streamed vs in-memory (skipped)",
			Columns: []string{"error"},
			Rows:    [][]string{{err.Error()}},
		})
	}
	return res
}

func runStreamAblation(news gen.Dataset) (*Table, error) {
	dir, err := os.MkdirTemp("", "dmc-exp-stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "news.dmb")
	if err := matrix.Save(path, news.M); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Streamed vs in-memory: DMC-imp on News at 85%",
		Columns: []string{"path", "time (ms)", "rules", "peak counter memory"},
	}
	inMem := core.DMCImpEach(news.M, core.FromPercent(85), core.Options{}, func(rules.Implication) {})
	t.AddRow("in-memory", inMem.Total.Milliseconds(), inMem.NumRules, kb(inMem.PeakCounterBytes))
	streamed, stSt, err := stream.MineImplicationsCfg(path, core.FromPercent(85), core.Options{}, stream.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	t.AddRow("streamed from disk", stSt.Total.Milliseconds(), len(streamed), kb(stSt.PeakCounterBytes))
	t.Note("identical rule sets; the streamed run re-reads the density buckets once per pipeline phase and never materializes the matrix")
	return t, nil
}
