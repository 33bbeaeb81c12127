package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return s
}

func TestMaxPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {200, 95}, {199, 94}, {256, 96}, {1000, 99}, {100000, 99},
	} {
		if got := maxPercentile(c.n); got != c.want {
			t.Errorf("maxPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMinOpsIsTheTailPercentilesFloor(t *testing.T) {
	if maxPercentile(minOps) < tailPct || maxPercentile(minOps-1) >= tailPct {
		t.Errorf("minOps = %d: p%d needs exactly that many samples", minOps, tailPct)
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n, q int
		want float64
	}{
		{200, 50, 100}, {200, 95, 190}, {256, 95, 244}, {1000, 99, 990}, {20, 50, 10},
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil || got != c.want {
			t.Errorf("p%d of 1..%d = %v, %v; want %v", c.q, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesShortTail(t *testing.T) {
	for _, c := range []struct{ n, q int }{{199, 95}, {19, 50}, {0, 50}, {255, 97}} {
		if _, err := percentile(seq(c.n), c.q); err == nil {
			t.Errorf("p%d of %d samples: want refusal", c.q, c.n)
		}
	}
}

func TestPercentileFailuresAreInf(t *testing.T) {
	s := seq(200)
	for i := 0; i < 15; i++ {
		s[i] = failedSample
	}
	if got, _ := percentile(s, 95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 15 of 200 failed = %v, want +Inf", got)
	}
	if got, _ := percentile(s, 50); math.IsInf(got, 0) {
		t.Errorf("p50 with 15 of 200 failed = %v, want finite", got)
	}
}
