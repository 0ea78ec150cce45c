package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of a sample by linear interpolation
// between order statistics (the sample is copied, not reordered). An
// empty sample reads 0.
func quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(sample []float64) float64 { return quantile(sample, 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the acceptance check the
// benchmark's bounds are held to. It needs at least two values.
func quartileSpread(sample []float64) float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (q(3) - q(1)) / q(2)
}

// timeSetups builds a deployment over and over for budget of wall
// time, at least setupMinReps and at most setupMaxReps times, discarding
// every build but the last, and returns that one with the fastest
// build's time in seconds. The fastest, not the median: on the reference
// box one and the same build takes either of two times 1.8× apart, in
// spells of fractions of a second to minutes, and the median of a window
// lands on whichever mode held for more of it, where some build of
// nearly every window runs uncontended (README: medians of consecutive
// sets of runs moved up to 25 % apart for the median build, 8 % for the
// fastest). Work moved into set-up raises both alike.
func timeSetups[T any](budget time.Duration, build func(rep int) (T, error), discard func(T) error) (T, float64, error) {
	var last T
	fastest := math.Inf(1)
	begin := time.Now()
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || time.Since(begin) < budget); rep++ {
		if rep > 0 {
			if err := discard(last); err != nil {
				return last, 0, err
			}
		}
		start := time.Now()
		d, err := build(rep)
		fastest = math.Min(fastest, time.Since(start).Seconds())
		if err != nil {
			return last, 0, err
		}
		last = d
	}
	return last, fastest, nil
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// ratio is a/b, reading 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
