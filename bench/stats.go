package main

import (
	"math"
	"sort"
)

// windows is the number of equal slices every timed phase is cut into.
// The reported value of a phase is the median of its per-window values, so
// one scheduler hiccup on the shared 2-core box costs one window, not the
// run.
const windows = 5

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of vs and returns its 0.5-quantile.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// windowIndex maps an offset into a phase of the given length to its
// window, clamping the closing instant into the last one.
func windowIndex(offset, phase float64) int {
	w := int(offset / phase * windows)
	if w >= windows {
		return windows - 1
	}
	return w
}

// windowedMedian groups values by window and returns the median of the
// per-window medians. Empty windows are skipped: a window the system never
// answered in already shows up as failed requests and SLO misses.
func windowedMedian(byWindow [windows][]float64) float64 {
	var meds []float64
	for _, vs := range byWindow {
		if len(vs) > 0 {
			meds = append(meds, median(vs))
		}
	}
	return median(meds)
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
