package main

import (
	"testing"
	"time"
)

func TestClockWindows(t *testing.T) {
	c := clock{start: time.Unix(100, 0), width: time.Second}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, 0}, // before the phase: first window
		{0, 0},
		{999 * time.Millisecond, 0},
		{time.Second, 1},
		{3500 * time.Millisecond, 3},
		{9 * time.Second, windows - 1}, // after the phase's end: last window
	} {
		if got := c.window(c.start.Add(tc.at)); got != tc.want {
			t.Errorf("window(start%+v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestKeyRatePerWindow(t *testing.T) {
	// A 4s phase whose callers returned 0.5s late: the last window
	// spans 1.5s.
	r := readRes{
		dur:     4500 * time.Millisecond,
		clk:     clock{width: time.Second},
		winKeys: [windows]int64{1000, 2000, 3000, 3000},
	}
	want := []float64{1000, 2000, 3000, 2000}
	for i, w := range want {
		if got := r.keyRate(i); got != w {
			t.Errorf("keyRate(%d) = %v, want %v", i, got, w)
		}
	}
}
