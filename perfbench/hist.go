package main

import (
	"math"
	"slices"
	"sort"
)

// samples holds raw virtual latencies (ns). Its backing array is reused
// across repetitions, so a steady-state run appends without allocating.
type samples struct{ v []int64 }

func (s *samples) reset()          { s.v = s.v[:0] }
func (s *samples) add(ns int64)    { s.v = append(s.v, ns) }
func (s *samples) sorted() []int64 { slices.Sort(s.v); return s.v }

// quantile returns the q-quantile of sorted values (nearest rank), or 0
// when there are none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// timing is a latency summary in microseconds with its sample count.
type timing struct {
	p50, p99, p999 float64
	n              int
}

func summarize(s *samples) timing {
	v := s.sorted()
	return timing{
		p50:  float64(quantile(v, 0.5)) / 1e3,
		p99:  float64(quantile(v, 0.99)) / 1e3,
		p999: float64(quantile(v, 0.999)) / 1e3,
		n:    len(v),
	}
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
