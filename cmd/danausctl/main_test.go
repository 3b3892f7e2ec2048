package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: scenario sizes that would panic, hang or print zeros
// are rejected with a message naming the flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		pools    int
		duration time.Duration
		factor   float64
		want     string // "" = accepted
	}{
		{1, 2 * time.Second, 0.02, ""},
		{4, time.Millisecond, 1, ""},
		{-1, 2 * time.Second, 0.02, "-pools"},
		{0, 2 * time.Second, 0.02, "-pools"},
		{1, -time.Second, 0.02, "-duration"},
		{1, 0, 0.02, "-duration"},
		{1, 2 * time.Second, 0, "-factor"},
		{1, 2 * time.Second, -0.5, "-factor"},
		{1, 2 * time.Second, math.NaN(), "-factor"},
	}
	for _, c := range cases {
		err := checkFlags(c.pools, c.duration, c.factor)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("pools=%d duration=%v factor=%v: rejected: %v", c.pools, c.duration, c.factor, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("pools=%d duration=%v factor=%v: error %v does not name %s", c.pools, c.duration, c.factor, err, c.want)
		}
	}
}
