package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether xs has at least ten samples beyond the
// q-quantile, the least that makes the tail worth printing.
func tailOK(xs []float64, q float64) bool {
	return float64(len(xs))*(1-q) >= 10
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Max(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDuration times fn reps times (after one untimed call that
// fills caches and lazy state) and returns the median.
func medianDuration(reps int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds)), nil
}

// metric is one printed reading: a named value with its unit, the
// number of samples behind it and where it came from.
type metric struct {
	Name   string
	Unit   string
	Value  float64
	N      int
	Source string
}

// ledger collects the readings of one run, in print order.
type ledger struct {
	ms []metric
}

func (l *ledger) add(name, unit string, v float64, n int, source string) {
	l.ms = append(l.ms, metric{name, unit, v, n, source})
}

// tail adds the q-quantile of xs when the sample supports it, and
// otherwise a line that says how many samples it would need.
func (l *ledger) tail(name, unit string, xs []float64, q float64, source string) {
	if !tailOK(xs, q) {
		need := int(math.Ceil(10 / (1 - q)))
		l.add(name, unit, math.NaN(), len(xs), fmt.Sprintf("%s; not reported: needs n>=%d", source, need))
		return
	}
	l.add(name, unit, quantile(xs, q), len(xs), source)
}

func (l *ledger) get(name string) (metric, bool) {
	for _, m := range l.ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (l *ledger) print(header string) {
	fmt.Printf("== %s\n", header)
	for _, m := range l.ms {
		v := "n/a"
		if !math.IsNaN(m.Value) {
			v = fmt.Sprintf("%.6g", m.Value)
		}
		fmt.Printf("  %-36s %14s %-7s n=%-6d %s\n", m.Name, v, m.Unit, m.N, m.Source)
	}
}
