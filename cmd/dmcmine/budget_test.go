package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

// budgetMatrix is the root package's budget fixture: a dense block of
// ~90%-correlated columns up front overflows a small counter budget in
// original row order, while the out-of-core engine's density-bucket
// order replays the sparse tail first and absorbs the block in the
// bitmap endgame.
func budgetMatrix() *matrix.Matrix {
	const denseRows, denseCols, totalRows = 150, 40, 1200
	rng := rand.New(rand.NewSource(4))
	rows := make([][]matrix.Col, 0, totalRows)
	for i := 0; i < denseRows; i++ {
		row := []matrix.Col{}
		for c := 0; c < denseCols; c++ {
			if rng.Intn(10) > 0 {
				row = append(row, matrix.Col(c))
			}
		}
		rows = append(rows, row)
	}
	for i := denseRows; i < totalRows; i++ {
		row := []matrix.Col{denseCols}
		if i%4 == 0 {
			row = []matrix.Col{matrix.Col((i / 4) % denseCols), denseCols}
		}
		rows = append(rows, row)
	}
	m := matrix.FromRows(denseCols+1, rows)
	labels := make([]string, denseCols+1)
	for c := range labels {
		labels[c] = fmt.Sprintf("w%02d", c)
	}
	m.SetLabels(labels) // a .basket file names its columns
	return m
}

// mineToFile runs cfg with -out and returns the canonically sorted
// rule file it wrote.
func mineToFile(t *testing.T, cfg runConfig) []byte {
	t.Helper()
	cfg.out = filepath.Join(t.TempDir(), "rules.txt")
	if err := run(cfg); err != nil {
		t.Fatalf("%s -mem-budget %d: %v", cfg.in, cfg.memBudget, err)
	}
	f, err := os.Open(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []byte
	if cfg.mode == "imp" {
		rs, err := rules.ReadImplications(f)
		if err != nil {
			t.Fatal(err)
		}
		rules.SortImplications(rs)
		for _, r := range rs {
			out = append(out, r.String()...)
			out = append(out, '\n')
		}
		return out
	}
	rs, err := rules.ReadSimilarities(f)
	if err != nil {
		t.Fatal(err)
	}
	rules.SortSimilarities(rs)
	for _, r := range rs {
		out = append(out, r.String()...)
		out = append(out, '\n')
	}
	return out
}

// TestRunMemBudgetDegrades: -mem-budget on a matrix whose resident mine
// overflows degrades by spilling the loaded matrix and mining it out of
// core, returning the unbudgeted rule set in both modes and for every
// input format — .basket included, which the out-of-core engine cannot
// read itself.
func TestRunMemBudgetDegrades(t *testing.T) {
	m := budgetMatrix()
	for _, ext := range []string{matrix.ExtBinary, matrix.ExtBasket} {
		in := filepath.Join(t.TempDir(), "budget"+ext)
		if err := matrix.Save(in, m); err != nil {
			t.Fatal(err)
		}
		loaded, err := matrix.Load(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"imp", "sim"} {
			cfg := baseConfig(in)
			cfg.mode, cfg.threshold, cfg.order = mode, 75, "original"
			want := mineToFile(t, cfg)
			if len(want) == 0 {
				t.Fatalf("%s %s: the unbudgeted mine found no rules; the test is vacuous", ext, mode)
			}

			// Precondition: the resident mine really overflows the budget.
			opts := core.Options{Order: core.OrderOriginal, MemBudgetBytes: 4096}
			err := core.CapturePass(func() {
				if mode == "imp" {
					core.DMCImpParallel(loaded, core.FromPercent(75), opts, 1)
				} else {
					core.DMCSimParallel(loaded, core.FromPercent(75), opts, 1)
				}
			})
			var be *core.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("%s %s: resident mine did not overflow the budget (err=%v)", ext, mode, err)
			}

			cfg.memBudget = 4096
			if got := mineToFile(t, cfg); string(got) != string(want) {
				t.Fatalf("%s %s: degraded rules differ from the unbudgeted run:\n%s\nvs\n%s", ext, mode, got, want)
			}
		}
	}
}
