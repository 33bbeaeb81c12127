package stream

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dmc/internal/core"
	"dmc/internal/gen"
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

// BenchmarkStreamKeys cycles the load benchmark's 15 keys (implications
// at 55 to 90, similarities at 60 to 90, steps of 5) over its data,
// gen.Bench at scale 1/8 saved as a .dmb file, three ways at one and
// two workers: fresh partitions the file for every key and deletes it
// after (MineImplicationsCfg, MineSimilaritiesCfg); kept partitions it
// once and replays it for every key; kept+memo mines it through a
// core.PrepareSource memo, which a server's file-backed dataset does,
// so after the warm-up cycle every key is served from the memo with no
// replay.
// One op is the whole cycle. ms/key is the mean mine, and p50-ms and
// p90-ms are the 8th and 14th of the 15 per-key means, the keys whose
// latency the load benchmark's op_p50_ms and op_p90_ms land on.
func BenchmarkStreamKeys(b *testing.B) {
	m := gen.Bench(gen.Config{Scale: 0.125, Seed: 1})
	path := filepath.Join(b.TempDir(), "bench"+matrix.ExtBinary)
	if err := matrix.Save(path, m); err != nil {
		b.Fatal(err)
	}
	type key struct {
		imp bool
		pct int
	}
	keys := []key{{true, 55}}
	for pct := 60; pct <= 90; pct += 5 {
		keys = append(keys, key{true, pct}, key{false, pct})
	}
	for _, way := range []string{"fresh", "kept", "kept+memo"} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", way, w), func(b *testing.B) {
				cfg := Config{Workers: w, TmpDir: b.TempDir()}
				var mine func(k key) error
				switch way {
				case "fresh":
					mine = func(k key) (err error) {
						if k.imp {
							_, _, err = MineImplicationsCfg(path, core.FromPercent(k.pct), core.Options{}, cfg)
						} else {
							_, _, err = MineSimilaritiesCfg(path, core.FromPercent(k.pct), core.Options{}, cfg)
						}
						return err
					}
				default:
					p, err := PartitionWith(path, cfg)
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					prep := core.PrepareSource(p, p.Ones())
					mine = func(k key) (err error) {
						th := core.FromPercent(k.pct)
						switch {
						case way == "kept" && k.imp:
							_, _, err = core.DMCImpParallelSource(p, p.Ones(), th, core.Options{}, w)
						case way == "kept":
							_, _, err = core.DMCSimParallelSource(p, p.Ones(), th, core.Options{}, w)
						case k.imp:
							err = core.CapturePass(func() { prep.Implications(th, core.Options{}, w) })
						default:
							err = core.CapturePass(func() { prep.Similarities(th, core.Options{}, w) })
						}
						return err
					}
				}
				perKey := make([]float64, len(keys))
				cycle := func() {
					for i, k := range keys {
						start := time.Now()
						if err := mine(k); err != nil {
							b.Fatal(err)
						}
						perKey[i] += time.Since(start).Seconds() * 1e3
					}
				}
				cycle() // fills the memo; the other ways just warm up
				clear(perKey)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
				var sum float64
				for i := range perKey {
					perKey[i] /= float64(b.N)
					sum += perKey[i]
				}
				b.ReportMetric(sum/float64(len(keys)), "ms/key")
				sorted := slices.Clone(perKey)
				slices.Sort(sorted)
				b.ReportMetric(sorted[7], "p50-ms")
				b.ReportMetric(sorted[13], "p90-ms")
			})
		}
	}
}
