package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest value with at least q of the samples at or below it. Raw
// samples, never histogram buckets, so a 1.5x shift reads as 1.5x.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// geomean returns the geometric mean of positive durations in
// milliseconds, so every execution weighs equally whatever its length.
func geomeanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, d := range ds {
		ms := float64(d) / float64(time.Millisecond)
		if ms <= 0 {
			ms = 1e-6 // a sub-resolution execution; keeps the log finite
		}
		sum += math.Log(ms)
	}
	return math.Exp(sum / float64(len(ds)))
}

// qphds is QphDS@SF computed from raw timings (§5.3): the executions
// over the query runs plus the maintenance run, with the load charged
// at 1% per stream, normalised to queries per hour and by scale factor.
func qphds(sf float64, streams, executions int, load, qr1, dm, qr2 time.Duration) float64 {
	den := qr1.Seconds() + dm.Seconds() + qr2.Seconds() + 0.01*float64(streams)*load.Seconds()
	if sf <= 0 || streams <= 0 || executions <= 0 || den <= 0 {
		return 0
	}
	return sf * 3600 * float64(executions) / den
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// joinMillis formats seconds as milliseconds, space-separated.
func joinMillis(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x*1e3, 'f', 2, 64)
	}
	return strings.Join(parts, " ")
}
