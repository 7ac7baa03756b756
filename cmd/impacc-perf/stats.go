package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples from a run.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	// Q1 and Q3 are reported from four samples on; below that only the
	// median is meaningful.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// TailP is the highest percentile of tailLadder that has at least
	// minBeyond samples above it, and Tail its value; both are zero when the
	// run has too few samples for any.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first, as the share of samples above them in parts per thousand;
// minBeyond is how many samples must lie above the one reported.
var tailLadder = []int{1, 10, 50, 100, 250}

const minBeyond = 10

func summarize(samples []float64) summary {
	s := summary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	if len(sorted) >= 4 {
		s.Q1 = quantile(sorted, 0.25)
		s.Q3 = quantile(sorted, 0.75)
	}
	if p, ok := tailPercentile(len(sorted)); ok {
		s.TailP = p
		s.Tail = quantile(sorted, p/100)
	}
	return s
}

// median of sorted samples: the middle one, or the mean of the middle two.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile is Python's statistics.quantiles "exclusive" method: position
// p*(n+1) among the sorted samples, clamped to the interior pair and
// interpolated (or extrapolated) linearly, so reported quartiles match what
// a reader computes from the same samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	j = min(max(j, 1), n-1)
	delta := h - float64(j)
	return sorted[j-1] + delta*(sorted[j]-sorted[j-1])
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples above it.
func tailPercentile(n int) (float64, bool) {
	for _, perMille := range tailLadder {
		if n*perMille >= minBeyond*1000 {
			return 100 - float64(perMille)/10, true
		}
	}
	return 0, false
}

// calibRefMs is the calibration kernel's median time on the reference host
// (2 cores, Go 1.24, linux/amd64). Every wall-clock sample is reported in
// reference-host seconds: raw * calibRefMs / calib, where calib is the mean
// of the kernel's times measured just before and just after that rep.
const calibRefMs = 40.0

// normalize scales a raw duration (any unit) by the rep's calibration time.
func normalize(raw, calibMs float64) float64 {
	return raw * calibRefMs / calibMs
}
