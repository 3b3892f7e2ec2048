package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: scenario sizes that would panic, hang or print zeros,
// and unknown configurations, are rejected with a message naming the
// flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		config   string
		pools    int
		duration time.Duration
		factor   float64
		want     string // "" = accepted
	}{
		{"D", 1, 2 * time.Second, 0.02, ""},
		{"D", 4, time.Millisecond, 1, ""},
		{"D", -1, 2 * time.Second, 0.02, "-pools"},
		{"D", 0, 2 * time.Second, 0.02, "-pools"},
		{"D", 1, -time.Second, 0.02, "-duration"},
		{"D", 1, 0, 0.02, "-duration"},
		{"D", 1, 2 * time.Second, 0, "-factor"},
		{"D", 1, 2 * time.Second, -0.5, "-factor"},
		{"D", 1, 2 * time.Second, math.NaN(), "-factor"},
		{"F/K", 1, 2 * time.Second, 0.02, ""},
		{"fp/fp", 1, 2 * time.Second, 0.02, ""},
		{"Z", 1, 2 * time.Second, 0.02, "-config"},
	}
	for _, c := range cases {
		_, err := checkFlags(c.config, c.pools, c.duration, c.factor)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("config=%s pools=%d duration=%v factor=%v: rejected: %v", c.config, c.pools, c.duration, c.factor, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("config=%s pools=%d duration=%v factor=%v: error %v does not name %s", c.config, c.pools, c.duration, c.factor, err, c.want)
		}
	}
}
