package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 9}, 4, 7, 10},
		{[]float64{1.5, 2.5, 10, 4, 7, 7, 8.25}, 2.5, 7, 8.25},
		{[]float64{100, 101, 99, 98, 102, 97, 103, 100, 100, 150}, 98.75, 100, 102.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{100, 101, 99, 98, 102, 97, 103, 100, 100, 150}); !near(got, 0.035) {
		t.Errorf("spread = %v, want 0.035", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{10, 0, 30, 20, 40} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 0}, {0.5, 20}, {1, 40}, {0.25, 10}, {0.99, 39.6}, {0.125, 5},
	} {
		if got := percentile(v, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	if v[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// fakeClock advances only when the loop sleeps or a request takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	start := c.now
	period := 10 * time.Millisecond
	// Request 1 stalls for 35ms (until t=45); requests 2..4 were due at
	// 20, 30 and 40 and go out back to back at 45, 46 and 47. Every other
	// request takes 1ms; request 5 is on time again.
	cost := []time.Duration{1, 35, 1, 1, 1, 1}
	samples := openLoop(c, start, period, len(cost), func(i int, due time.Time) error {
		if want := start.Add(time.Duration(i) * period); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due, want)
		}
		c.now = c.now.Add(cost[i] * time.Millisecond)
		if i == 5 {
			return errors.New("refused")
		}
		return nil
	})
	wantLate := []float64{0, 0, 25, 16, 7, 0}
	wantLat := []float64{1, 35, 26, 17, 8}
	lat, late, failed := latencies(samples)
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
	for i := range wantLate {
		if !near(late[i], wantLate[i]) {
			t.Errorf("late[%d] = %v, want %v", i, late[i], wantLate[i])
		}
	}
	for i := range wantLat {
		if !near(lat[i].v, wantLat[i]) {
			t.Errorf("latency[%d] = %v, want %v", i, lat[i].v, wantLat[i])
		}
	}
}

func TestWindowMedianIgnoresASlowWindow(t *testing.T) {
	start := time.Unix(0, 0)
	var vals []timedValue
	// Five 1s windows with values 1..5 ms, except window 3 is slow (100).
	for w := 0; w < 5; w++ {
		for j := 0; j < 10; j++ {
			v := float64(w + 1)
			if w == 3 {
				v = 100
			}
			vals = append(vals, timedValue{start.Add(time.Duration(w)*time.Second + time.Duration(j)*50*time.Millisecond), v})
		}
	}
	// Per-window medians 1, 2, 3, 100, 5 → median 3.
	if got := windowMedian(vals, start, 5*time.Second, 5, median); got != 3 {
		t.Errorf("windowMedian = %v, want 3", got)
	}
	// Counts per window: samples past the span fall into the last one.
	vals = append(vals, timedValue{start.Add(7 * time.Second), 1})
	count := func(b []float64) float64 { return float64(len(b)) }
	if got := windowMedian(vals, start, 5*time.Second, 5, count); got != 10 {
		t.Errorf("count median = %v, want 10", got)
	}
}
