package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile is a nearest-rank percentile together with the samples it
// rests on, so a reader can tell how many observations lie beyond it.
type Percentile struct {
	Value   time.Duration
	Samples int
	// Beyond counts the samples strictly above Value.
	Beyond int
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100)
// of ds: the smallest sample with at least q% of the samples at or
// below it. ds is not modified.
func percentile(ds []time.Duration, q float64) Percentile {
	if len(ds) == 0 {
		return Percentile{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	v := s[rank-1]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return Percentile{Value: v, Samples: len(s), Beyond: beyond}
}
