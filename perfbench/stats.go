package main

import "sort"

// tailBeyond is how many samples must lie above a reported tail
// percentile: the tail is the highest percentile with at least this
// many rounds beyond it.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest-percentile sample with at least tailBeyond
// samples above it, and that sample's percentile (the share of samples
// at or below it). With tailBeyond or fewer samples no such sample
// exists; the maximum is returned as the 100th percentile.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	k := len(s) - 1 - tailBeyond
	if k < 0 {
		return s[len(s)-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
