package main

import (
	"math"
	"sort"
)

// Dist summarises a sample: the median, and the tail as the highest
// percentile with at least ten samples beyond it. With ten samples or
// fewer there is no such percentile; the tail is then the maximum and
// TailPct is 100.
type Dist struct {
	N       int       `json:"n"`
	P50     float64   `json:"p50"`
	Tail    float64   `json:"tail"`
	TailPct float64   `json:"tail_pct"`
	Raw     []float64 `json:"raw"`
}

func Summarise(xs []float64) Dist {
	d := Dist{N: len(xs), Raw: xs}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.P50 = Median(s)
	if k := len(s) - 10; k >= 1 {
		d.Tail, d.TailPct = s[k-1], 100*float64(k)/float64(len(s))
	} else {
		d.Tail, d.TailPct = s[len(s)-1], 100
	}
	return d
}

// Median of xs, which it sorts in place.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
