package core

import (
	"fmt"
	"testing"

	"dmc/internal/gen"
)

// mineSink keeps the measured mines from being optimized away.
var mineSink Stats

// BenchmarkMineWorkers is EXPERIMENTS.md's scaling drill: both families
// at 85% over gen.Bench at scale 1/8 (131,072 rows, the load
// benchmark's data) and 1 (2^20 rows) at one and two workers. One
// worker is the serial scan (DMCImp is DMCImpParallel at w1). Read it
// with -benchmem: B/op is where a per-phase copy of the rows would show.
func BenchmarkMineWorkers(b *testing.B) {
	th := FromPercent(85)
	for _, scale := range []float64{0.125, 1} {
		m := gen.Bench(gen.Config{Scale: scale, Seed: 1})
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("imp/scale=%g/w%d", scale, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, mineSink = DMCImpParallel(m, th, Options{}, workers)
				}
			})
			b.Run(fmt.Sprintf("sim/scale=%g/w%d", scale, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, mineSink = DMCSimParallel(m, th, Options{}, workers)
				}
			})
		}
	}
}

// BenchmarkMineShard is one fleet shard task at one worker, the mine
// whose owned mask is a column range rather than nil: the same data
// and threshold as BenchmarkMineWorkers, owning the lower or upper
// half of the column ids, or the second quarter.
func BenchmarkMineShard(b *testing.B) {
	th := FromPercent(85)
	for _, scale := range []float64{0.125, 1} {
		m := gen.Bench(gen.Config{Scale: scale, Seed: 1})
		mcols := m.NumCols()
		for _, sh := range []struct {
			name   string
			lo, hi int
		}{{"lo", 0, mcols / 2}, {"hi", mcols / 2, mcols}, {"q2", mcols / 4, mcols / 2}} {
			o := Options{Shard: &ShardRange{Lo: sh.lo, Hi: sh.hi}}
			b.Run(fmt.Sprintf("imp/scale=%g/%s", scale, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, mineSink = DMCImpParallel(m, th, o, 1)
				}
			})
			b.Run(fmt.Sprintf("sim/scale=%g/%s", scale, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, mineSink = DMCSimParallel(m, th, o, 1)
				}
			})
		}
	}
}
