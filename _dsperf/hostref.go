package main

import (
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by a
// quarter or more over minutes as neighbouring load comes and goes.
// What drifts is the cost of allocating and collecting memory: over
// consecutive passes of one seed, a kernel that allocates, grows a map
// and sorts correlated 0.73–0.81 with a pass's query_geomean_ms and
// 0.75–0.87 with its set-up time, while a pointer chase did not
// (README.md, "Why the timings are scaled"). refWork is that kernel.
// It calls nothing in the program under test.
//
// A run times the kernel at points between its set-ups and passes and
// reports each timing metric of a set-up or pass scaled by refNominal
// over the mean of the kernel's times at the points on either side:
// seconds on a host where the kernel takes refNominal. A change to the
// program moves the scaled figures as it moves the raw ones; a slower
// host moves the raw figures and the kernel together and largely
// cancels out.

const (
	// refReps is the number of kernel runs at each point; the point's
	// time is their median.
	refReps = 5
	// refNominal is about the kernel's time on the recording host in a
	// quiet period (see README.md); it only sets the scale.
	refNominal = 100 * time.Millisecond
)

var refSink int

// refWork runs the kernel once and returns its duration.
func refWork() time.Duration {
	start := time.Now()
	m := map[int]int{}
	s := make([][]int, 0, 1<<14)
	for i := 0; i < 1<<18; i++ {
		m[i*7919%1000003] += i
		if i%16 == 0 {
			s = append(s, make([]int, 8))
		}
	}
	xs := make([]int, 0, len(m))
	for k := range m {
		xs = append(xs, k)
	}
	slices.Sort(xs)
	refSink += len(s) + xs[0]
	return time.Since(start)
}

// refPoint collects garbage, so that what the last set-up or pass left
// behind is not the kernel's to collect, and returns the median time
// of refReps kernel runs in seconds.
func refPoint() float64 {
	runtime.GC()
	xs := make([]float64, refReps)
	for i := range xs {
		xs[i] = seconds(refWork())
	}
	return median(xs)
}

// refScale tracks the kernel points of a run.
type refScale struct {
	points []float64 // kernel time at each point, seconds
}

// next times the kernel at a new point and returns the factor for what
// ran since the previous point: refNominal over the mean of the two
// points' times. Multiply a time by it, divide a rate by it.
func (r *refScale) next() float64 {
	k := refPoint()
	prev := k
	if n := len(r.points); n > 0 {
		prev = r.points[n-1]
	}
	r.points = append(r.points, k)
	return refNominal.Seconds() / ((prev + k) / 2)
}
