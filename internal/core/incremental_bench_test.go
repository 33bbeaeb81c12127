package core

import (
	"bytes"
	"sync"
	"testing"

	"dmc/internal/gen"
	"dmc/internal/matrix"
)

// The append path's four steps on the load benchmark's data shape:
// gen.Bench at scale 1/8 (131,072 rows × 512 columns, ~117k
// co-occurring pairs), folding one 128-row append batch.
var incBench struct {
	once  sync.Once
	m     *matrix.Matrix // the base matrix
	grown *matrix.Matrix // m plus one 128-row batch
	snap  []byte         // BuildIncremental(m), encoded
}

func incBenchData(b *testing.B) {
	b.Helper()
	incBench.once.Do(func() {
		full := gen.Bench(gen.Config{Scale: 0.125, Seed: 1})
		rows := make([][]matrix.Col, full.NumRows())
		for i := range rows {
			rows[i] = full.Row(i)
		}
		n := len(rows) - 128
		incBench.m = matrix.FromRows(full.NumCols(), rows[:n])
		incBench.grown = full
		var buf bytes.Buffer
		if err := BuildIncremental(incBench.m).EncodeTo(&buf); err != nil {
			panic(err)
		}
		incBench.snap = buf.Bytes()
	})
	b.ResetTimer()
}

func BenchmarkIncrementalBuild(b *testing.B) {
	incBenchData(b)
	for i := 0; i < b.N; i++ {
		BuildIncremental(incBench.m)
	}
}

func BenchmarkIncrementalDecode(b *testing.B) {
	incBenchData(b)
	for i := 0; i < b.N; i++ {
		if _, err := DecodeIncremental(bytes.NewReader(incBench.snap)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalFold(b *testing.B) {
	incBenchData(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc, err := DecodeIncremental(bytes.NewReader(incBench.snap))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		inc.AddMatrixRows(incBench.grown, incBench.m.NumRows())
	}
}

func BenchmarkIncrementalEncode(b *testing.B) {
	incBenchData(b)
	inc, err := DecodeIncremental(bytes.NewReader(incBench.snap))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := inc.EncodeTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
