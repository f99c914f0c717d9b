package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the percentile to report as the tail of n
// samples: the workload's fixed choice when at least ten samples lie
// beyond it, otherwise the highest of the standard rungs that does
// (short runs in tests). The fixed choice keeps the reported percentile
// the same from run to run.
func tailPercentile(n int, want float64) float64 {
	if beyond(n, want) >= 10 {
		return want
	}
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if p < want && beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// beyond counts the samples of n that lie above percentile p.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}
