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
// benchmark's data) and 1 (2^20 rows), through the serial entry point
// and the parallel one at one and two workers. Read it with
// -benchmem: B/op is where a per-phase copy of the rows would show.
func BenchmarkMineWorkers(b *testing.B) {
	th := FromPercent(85)
	for _, scale := range []float64{0.125, 1} {
		m := gen.Bench(gen.Config{Scale: scale, Seed: 1})
		for _, workers := range []int{0, 1, 2} { // 0 = DMCImp / DMCSim
			point := "serial"
			if workers > 0 {
				point = fmt.Sprintf("w%d", workers)
			}
			b.Run(fmt.Sprintf("imp/scale=%g/%s", scale, point), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if workers == 0 {
						_, mineSink = DMCImp(m, th, Options{})
					} else {
						_, mineSink = DMCImpParallel(m, th, Options{}, workers)
					}
				}
			})
			b.Run(fmt.Sprintf("sim/scale=%g/%s", scale, point), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if workers == 0 {
						_, mineSink = DMCSim(m, th, Options{})
					} else {
						_, mineSink = DMCSimParallel(m, th, Options{}, workers)
					}
				}
			})
		}
	}
}
