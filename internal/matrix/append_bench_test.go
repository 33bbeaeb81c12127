package matrix_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dmc/internal/gen"
	"dmc/internal/matrix"
)

// The row-append path's two matrix steps on the load benchmark's data
// shape: gen.Bench at scale 1/8 (131,072 rows × 512 columns), labeled
// like an uploaded basket file, and one 128-row basket batch.
var appendBench struct {
	once  sync.Once
	m     *matrix.Matrix
	batch []byte
}

func appendBenchData(b *testing.B) {
	b.Helper()
	appendBench.once.Do(func() {
		m := gen.Bench(gen.Config{Scale: 0.125, Seed: 1})
		labels := make([]string, m.NumCols())
		for c := range labels {
			labels[c] = fmt.Sprintf("i%d", c)
		}
		m.SetLabels(labels)
		var buf bytes.Buffer
		for i := 0; i < 128; i++ {
			for j, c := range m.Row(i) {
				if j > 0 {
					buf.WriteByte(' ')
				}
				buf.WriteString(labels[c])
			}
			buf.WriteByte('\n')
		}
		appendBench.m, appendBench.batch = m, buf.Bytes()
	})
	b.ReportAllocs()
	b.ResetTimer()
}

// The sinks keep the compiler from dropping the measured calls.
var (
	sinkBytes  []byte
	sinkMatrix *matrix.Matrix
)

func BenchmarkEncodeBinary(b *testing.B) {
	appendBenchData(b)
	for i := 0; i < b.N; i++ {
		data, err := matrix.EncodeBinary(appendBench.m)
		if err != nil {
			b.Fatal(err)
		}
		sinkBytes = data
	}
}

func BenchmarkExtendBaskets(b *testing.B) {
	appendBenchData(b)
	for i := 0; i < b.N; i++ {
		grown, err := matrix.ExtendBaskets(appendBench.m, bytes.NewReader(appendBench.batch))
		if err != nil {
			b.Fatal(err)
		}
		sinkMatrix = grown
	}
}
