package stream

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dmc/internal/core"
	"dmc/internal/matrix"
)

// Streaming benchmarks: the replay fast path, the partitioning pass
// (serial vs sharded), and the end-to-end disk miners. Rows/sec comes
// from b.ReportMetric, MB/sec from b.SetBytes over the spilled byte
// volume — the figures EXPERIMENTS.md's streaming section quotes.

func benchInput(b *testing.B, rows int) (string, *matrix.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, rows, 64)
	path := filepath.Join(b.TempDir(), "bench"+matrix.ExtBinary)
	if err := matrix.Save(path, m); err != nil {
		b.Fatal(err)
	}
	return path, m
}

// BenchmarkReplayPass measures one full pass over the spilled buckets —
// the unit the miners repeat per phase.
func BenchmarkReplayPass(b *testing.B) {
	path, m := benchInput(b, 4000)
	p, err := PartitionWith(path, Config{TmpDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	var spilled int64
	for _, bk := range p.buckets {
		fi, err := os.Stat(bk.path)
		if err != nil {
			b.Fatal(err)
		}
		spilled += fi.Size()
	}
	b.SetBytes(spilled)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := p.Pass()
		n := rows.Len()
		for j := 0; j < n; j++ {
			rows.Row(j)
		}
	}
	b.ReportMetric(float64(m.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkPartition measures the spill-building pass from a binary
// matrix file, serial vs sharded decode+classify.
func BenchmarkPartition(b *testing.B) {
	path, m := benchInput(b, 4000)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			b.SetBytes(fi.Size())
			for i := 0; i < b.N; i++ {
				p, err := PartitionWith(path, Config{TmpDir: b.TempDir(), Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkStreamMine is the end-to-end disk miner at one and two
// workers.
func BenchmarkStreamMine(b *testing.B) {
	path, m := benchInput(b, 2000)
	th := core.FromPercent(85)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"parallel-framed-w1", Config{Workers: 1}},
		{"parallel-framed-w2", Config{Workers: 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := MineImplicationsCfg(path, th, core.Options{}, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
			// One partitioning pass plus two replay passes per mine.
			b.ReportMetric(float64(3*m.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
