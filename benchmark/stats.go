package main

import (
	"math"
	"runtime"
	"sort"
)

// tailLadder lists the percentiles a timing may report as its tail,
// highest first. A timing reports the highest of them that still has
// at least minBeyond samples above it, so the tail is never set by a
// handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// dist summarizes one timing: its median, its tail (the highest
// percentile of tailLadder with at least minBeyond samples beyond it)
// and the sample count. A failed or refused operation enters as +Inf:
// it misses every latency limit and sorts above every real sample.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // 0 when N is too small for any ladder percentile
}

// summarize computes the dist of xs without modifying it.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.P50 = nearestRank(s, 50)
	if p, ok := tailPercentile(len(s)); ok {
		d.TailPct = p
		d.Tail = nearestRank(s, p)
	} else {
		d.Tail = s[len(s)-1]
	}
	return d
}

// rankIndex is the 0-based nearest-rank index of percentile p in n
// sorted samples: the smallest index with at least p% of the samples
// at or below it.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// nearestRank returns percentile p of the sorted samples s.
func nearestRank(s []float64, p float64) float64 {
	return s[rankIndex(len(s), p)]
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples above it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// finite clamps +Inf (a failed operation that decided a percentile) to
// a large finite number so the result stays encodable as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || v > 1e12 {
		return 1e12
	}
	return v
}

func infMS() float64 { return math.Inf(1) }

func isInf(v float64) bool { return math.IsInf(v, 1) }

// settle collects the heap before a set-up is timed. Without it, a
// collection owed by earlier work landed in the set-up of some runs and
// not others, and serve-mixed's set-up read 3 ms or 6 ms by that alone.
func settle() { runtime.GC() }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
