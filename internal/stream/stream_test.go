package stream

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/rules"
)

func writeTemp(t *testing.T, m *matrix.Matrix, ext string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m"+ext)
	if err := matrix.Save(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func randomMatrix(rng *rand.Rand, n, mcols int) *matrix.Matrix {
	b := matrix.NewBuilder(mcols)
	for i := 0; i < n; i++ {
		var row []matrix.Col
		base := matrix.Col(rng.Intn(1+mcols/4) * 4)
		for d := 0; d < 4; d++ {
			if c := base + matrix.Col(d); int(c) < mcols && rng.Float64() < 0.7 {
				row = append(row, c)
			}
		}
		for c := 0; c < mcols; c++ {
			if rng.Float64() < 0.05 {
				row = append(row, matrix.Col(c))
			}
		}
		b.AddRow(row)
	}
	return b.Build()
}

func TestPartitionCountsAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 120, 24)
	path := writeTemp(t, m, matrix.ExtBinary)
	p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.NumRows() != m.NumRows() || p.NumCols() != m.NumCols() {
		t.Fatalf("dims %dx%d", p.NumRows(), p.NumCols())
	}
	wantOnes := m.Ones()
	for c, k := range p.Ones() {
		if k != wantOnes[c] {
			t.Fatalf("ones[%d] = %d, want %d", c, k, wantOnes[c])
		}
	}
	// A pass delivers every row exactly once, in non-decreasing bucket
	// order, with the same multiset of rows as the matrix.
	rows := p.Pass()
	if rows.Len() != m.NumRows() {
		t.Fatalf("pass len %d", rows.Len())
	}
	seen := make(map[string]int)
	prevBucket := 0
	for i := 0; i < rows.Len(); i++ {
		row := rows.Row(i)
		b := matrix.BucketIndex(len(row))
		if b < prevBucket {
			t.Fatalf("bucket order violated at %d: %d after %d", i, b, prevBucket)
		}
		prevBucket = b
		seen[key(row)]++
	}
	for i := 0; i < m.NumRows(); i++ {
		k := key(m.Row(i))
		seen[k]--
		if seen[k] == 0 {
			delete(seen, k)
		}
	}
	if len(seen) != 0 {
		t.Fatalf("row multiset mismatch: %d residuals", len(seen))
	}
}

func key(row []matrix.Col) string {
	b := make([]byte, 0, len(row)*4)
	for _, c := range row {
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return string(b)
}

// Streamed mining must equal in-memory mining exactly, for both rule
// kinds, both file formats, and across thresholds.
func TestStreamMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 150, 30)
	for _, ext := range []string{matrix.ExtText, matrix.ExtBinary} {
		path := writeTemp(t, m, ext)
		for _, pct := range []int{100, 85, 70} {
			th := core.FromPercent(pct)
			wantImp, _ := core.DMCImp(m, th, core.Options{})
			gotImp, _, err := MineImplicationsCfg(path, th, core.Options{}, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if d := rules.DiffImplications(gotImp, wantImp); d != "" {
				t.Fatalf("%s %d%% imp:\n%s", ext, pct, d)
			}
			wantSim, _ := core.DMCSim(m, th, core.Options{})
			gotSim, _, err := MineSimilaritiesCfg(path, th, core.Options{}, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if d := rules.DiffSimilarities(gotSim, wantSim); d != "" {
				t.Fatalf("%s %d%% sim:\n%s", ext, pct, d)
			}
		}
	}
}

func TestStreamWithBitmapSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 100, 20)
	path := writeTemp(t, m, matrix.ExtBinary)
	th := core.FromPercent(80)
	opts := core.Options{BitmapMaxRows: 20, BitmapMinBytes: -1}
	want, _ := core.DMCImp(m, th, opts)
	got, st, err := MineImplicationsCfg(path, th, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := rules.DiffImplications(got, want); d != "" {
		t.Fatalf("bitmap-switch stream mismatch:\n%s", d)
	}
	if st.SwitchPosLT < 0 && st.SwitchPos100 < 0 {
		t.Error("no bitmap switch recorded")
	}
}

func TestPartitionReuseAcrossThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 80, 16)
	path := writeTemp(t, m, matrix.ExtBinary)
	p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, pct := range []int{90, 75} {
		th := core.FromPercent(pct)
		got, _, err := core.DMCImpParallelSource(p, p.Ones(), th, core.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := core.DMCImp(m, th, core.Options{})
		if d := rules.DiffImplications(got, want); d != "" {
			t.Fatalf("reused partition at %d%%:\n%s", pct, d)
		}
	}
}

func TestPartitionCleansUp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 40, 8)
	path := writeTemp(t, m, matrix.ExtBinary)
	tmp := t.TempDir()
	p, err := PartitionWith(path, Config{TmpDir: tmp, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(tmp)
	if len(entries) != 1 {
		t.Fatalf("expected one spill dir, found %d entries", len(entries))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(tmp)
	if len(entries) != 0 {
		t.Fatalf("spill dir not removed: %d entries", len(entries))
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := PartitionWith(filepath.Join(t.TempDir(), "missing.dmb"), Config{Workers: 1}); err == nil {
		t.Error("missing file accepted")
	}
	// A corrupt file must fail the partitioning pass cleanly.
	bad := filepath.Join(t.TempDir(), "bad.dmb")
	if err := os.WriteFile(bad, []byte("DMCBgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionWith(bad, Config{Workers: 1}); err == nil {
		t.Error("corrupt file accepted")
	}
	if _, _, err := MineImplicationsCfg(bad, core.FromPercent(80), core.Options{}, Config{Workers: 1}); err == nil {
		t.Error("MineImplicationsCfg on corrupt file succeeded")
	}
}

func TestOutOfOrderReadPanicsAsPassError(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(rng, 20, 8)
	path := writeTemp(t, m, matrix.ExtBinary)
	p, err := PartitionWith(path, Config{TmpDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rows := p.Pass()
	defer func() {
		r := recover()
		var pe *PassError
		if r == nil {
			t.Fatal("out-of-order read did not panic")
		}
		if !errors.As(r.(error), &pe) {
			t.Fatalf("panic value %T is not a PassError", r)
		}
	}()
	rows.Row(5)
}

func TestEmptyAndAllEmptyRows(t *testing.T) {
	for name, m := range map[string]*matrix.Matrix{
		"no rows":    matrix.New(4),
		"empty rows": matrix.FromRows(3, [][]matrix.Col{{}, {}, {1}}),
	} {
		path := writeTemp(t, m, matrix.ExtBinary)
		got, _, err := MineImplicationsCfg(path, core.FromPercent(80), core.Options{}, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := core.DMCImp(m, core.FromPercent(80), core.Options{})
		if d := rules.DiffImplications(got, want); d != "" {
			t.Fatalf("%s:\n%s", name, d)
		}
	}
}
