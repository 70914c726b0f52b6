package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 1) of values by linear
// interpolation between closest ranks; values need not be sorted. It
// returns 0 for an empty slice.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// quartiles returns the three cut points that Python's
// statistics.quantiles(values, n=4) returns with its default
// "exclusive" method, so the spreads printed here match the ones the
// acceptance check computes. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	const n = 4
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// timedValue is one sample and when it was taken (or due).
type timedValue struct {
	at time.Time
	v  float64
}

// windowMedian splits the samples into k equal time windows from start
// over span, applies stat to each non-empty window, and returns the
// median over windows. A slowdown of the machine that covers fewer than
// half the windows then moves the result little.
func windowMedian(vals []timedValue, start time.Time, span time.Duration, k int, stat func([]float64) float64) float64 {
	buckets := make([][]float64, k)
	for _, x := range vals {
		i := int(int64(x.at.Sub(start)) * int64(k) / int64(span))
		if i < 0 {
			i = 0
		} else if i >= k {
			i = k - 1
		}
		buckets[i] = append(buckets[i], x.v)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, stat(b))
		}
	}
	return median(per)
}

// windows is how many time windows a measured phase is split into.
const windows = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock abstracts time so the open-loop accounting can be tested with a
// fake clock.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// opSample is one open-loop request: how late the generator sent it
// relative to its due time, and its latency measured from the due time
// (so a stall is charged to every request queued behind it).
type opSample struct {
	Due     time.Time
	Late    time.Duration
	Latency time.Duration
	Err     error
}

// openLoop issues n requests on a fixed schedule — request i is due at
// start + i*period — whether or not earlier ones have finished. A single
// goroutine sends them in order: when a reply is slow the next request
// goes out as soon as it can and the delay shows as lateness. send
// performs request i; its completion time is read from the clock when
// it returns.
func openLoop(c clock, start time.Time, period time.Duration, n int, send func(i int, due time.Time) error) []opSample {
	out := make([]opSample, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if now := c.Now(); now.Before(due) {
			c.Sleep(due.Sub(now))
		}
		sent := c.Now()
		err := send(i, due)
		done := c.Now()
		out = append(out, opSample{Due: due, Late: sent.Sub(due), Latency: done.Sub(due), Err: err})
	}
	return out
}

// latencies returns the successful samples' latencies, stamped with
// their due times, and the generator's lateness over all samples, both
// in milliseconds.
func latencies(samples []opSample) (lat []timedValue, late []float64, failed int) {
	for _, s := range samples {
		late = append(late, ms(s.Late))
		if s.Err != nil {
			failed++
			continue
		}
		lat = append(lat, timedValue{s.Due, ms(s.Latency)})
	}
	return lat, late, failed
}

// values drops the timestamps.
func values(tv []timedValue) []float64 {
	out := make([]float64, len(tv))
	for i, x := range tv {
		out[i] = x.v
	}
	return out
}
