package main

import (
	"fmt"
	"math"
	"sort"
)

// samples is one timing series in its unit (seconds or milliseconds).
type samples []float64

// quantile interpolates linearly between the order statistics, so a
// median of an even count is the mean of the middle pair.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest percentile of tailLevels with at least ten
// samples beyond it, and its value. ok is false when even the median has
// fewer than ten samples beyond it; the maximum is reported then.
func (s samples) tail() (level, value float64, ok bool) {
	for _, p := range tailLevels {
		if float64(len(s))*(1-p/100) >= 10 {
			return p, s.quantile(p / 100), true
		}
	}
	return 100, s.quantile(1), false
}

// describe renders a series the way every timing is reported: median,
// tail percentile and sample count.
func (s samples) describe(unit string) string {
	if len(s) == 0 {
		return "no samples"
	}
	level, v, ok := s.tail()
	tail := fmt.Sprintf("p%g=%.4g %s", level, v, unit)
	if !ok {
		tail = fmt.Sprintf("max=%.4g %s (fewer than 10 samples beyond p50)", v, unit)
	}
	return fmt.Sprintf("median=%.4g %s  %s  n=%d", s.median(), unit, tail, len(s))
}
