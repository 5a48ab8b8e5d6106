package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between the closest ranks. xs need not be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail picks the highest percentile of the ladder that still has at
// least ten samples beyond it, so the reported tail is never one or two
// outliers. It returns the percentile, its value and the number of
// samples beyond it.
func tail(xs []float64) (pct, value float64, beyond int) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if b := n * (1 - p/100); b >= 10 {
			return p, quantile(xs, p/100), int(b)
		}
	}
	return 50, median(xs), len(xs) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredNanos returns how much of [lo, hi) the union of ivs covers.
func coveredNanos(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		total += iv.hi - end
		end = iv.hi
	}
	return total
}
