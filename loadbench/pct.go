package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer samples is one outlier's latency.
const minTail = 10

// rank is the 1-based nearest-rank position of percentile q among n
// samples.
func rank(n, q int) int { return (q*n + 99) / 100 }

// maxPercentile returns the highest whole percentile of n samples that
// still leaves minTail samples beyond it, or 0 when not even the median
// does.
func maxPercentile(n int) int {
	for q := 99; q >= 50; q-- {
		if n-rank(n, q) >= minTail {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank q-th percentile of samples. A
// failed operation is a +Inf sample, so failures count as missing any
// latency limit. It refuses when fewer than minTail samples lie beyond
// the percentile.
func percentile(samples []float64, q int) (float64, error) {
	n := len(samples)
	if maxPercentile(n) < q {
		return 0, fmt.Errorf("p%d needs %d samples beyond it; %d samples leave %d", q, minTail, n, n-rank(n, q))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(n, q)-1], nil
}

// failedSample is the latency a failed operation contributes.
var failedSample = math.Inf(1)
