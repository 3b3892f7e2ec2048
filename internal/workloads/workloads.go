// Package workloads implements the eight workload generators of the
// paper's Table 2: Filebench Fileserver and Webserver, the sequential
// Seqwrite/Seqread micro-workloads, Stress-ng RandomIO, the Sysbench
// CPU benchmark, a from-scratch LSM key-value store standing in for
// RocksDB, a Lighttpd-style container startup sequence, and the custom
// Fileappend/Fileread benchmarks.
//
// Every workload drives a vfsapi.FileSystem, so the same generator runs
// unchanged against each Table 1 configuration.
package workloads

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Stats aggregates what a workload instance measured inside its
// measurement window.
type Stats struct {
	Ops     metrics.Counter
	Latency *metrics.Histogram
	Errors  uint64
}

// NewStats returns an empty stats collector.
func NewStats() *Stats { return &Stats{Latency: metrics.NewHistogram()} }

// Record adds one completed operation of n bytes with the given latency.
func (s *Stats) Record(n int64, lat time.Duration) {
	s.Ops.Add(n)
	s.Latency.Record(lat)
}

// ThroughputMBps returns MB/s over the window.
func (s *Stats) ThroughputMBps(window time.Duration) float64 {
	return s.Ops.Throughput(window) / (1 << 20)
}

// Group tracks completion of a set of workload threads so experiments
// can stop background services and drain the engine.
type Group struct {
	eng     *sim.Engine
	pending int
	q       *sim.WaitQueue
}

// NewGroup creates a completion group.
func NewGroup(eng *sim.Engine) *Group {
	return &Group{eng: eng, q: sim.NewWaitQueue(eng, "workload-group")}
}

// Go spawns a workload thread tracked by the group.
func (g *Group) Go(name string, fn func(p *sim.Proc)) {
	g.pending++
	g.eng.Go(name, func(p *sim.Proc) {
		fn(p)
		g.pending--
		if g.pending == 0 {
			g.q.Broadcast()
		}
	})
}

// Wait parks until every spawned thread has finished.
func (g *Group) Wait(p *sim.Proc) {
	for g.pending > 0 {
		g.q.Wait(p)
	}
}

// Clock abstracts the measurement window: operations recorded before
// From are warmup and discarded.
type Clock struct {
	Eng  *sim.Engine
	From time.Duration
	Stop time.Duration
}

// Measuring reports whether the current time is inside the window.
func (c Clock) Measuring() bool {
	now := c.Eng.Now()
	return now >= c.From && (c.Stop <= 0 || now < c.Stop)
}

// Done reports whether the workload deadline has passed.
func (c Clock) Done() bool {
	return c.Stop > 0 && c.Eng.Now() >= c.Stop
}

// Window returns the measurement window length.
func (c Clock) Window() time.Duration {
	if c.Stop <= 0 {
		return c.Eng.Now() - c.From
	}
	return c.Stop - c.From
}

// fileName builds a deterministic fileset path.
func fileName(dir string, i int) string {
	return fmt.Sprintf("%s/f%05d", dir, i)
}

// sizedRand draws a file size around mean (0.5x..1.5x) — a stand-in for
// Filebench's gamma-distributed file sizes.
func sizedRand(rng *rand.Rand, mean int64) int64 {
	if mean <= 1 {
		return 1
	}
	return mean/2 + rng.Int63n(mean)
}

// ctxFor builds a filesystem context for a workload thread.
func ctxFor(p *sim.Proc, t *cpu.Thread) vfsapi.Ctx { return vfsapi.Ctx{P: p, T: t} }

// Table2 returns the paper's workload symbol inventory (Table 2).
func Table2() [][2]string {
	return [][2]string{
		{"FLS", "Fileserver (Filebench) on Ceph"},
		{"RND", "Random I/O with readahead (Stress-ng) on ext4/RAID0"},
		{"SSB", "CPU benchmark (Sysbench)"},
		{"WBS", "Webserver (Filebench) on ext4/RAID0"},
		{"1FLS/D", "1x Fileserver on user-level Danaus/Ceph cluster"},
		{"7FLS/D", "7x Fileserver on user-level Danaus/Ceph cluster"},
		{"1FLS/K", "1x Fileserver on kernel CephFS/Ceph cluster"},
		{"7FLS/K", "7x Fileserver on kernel CephFS/Ceph cluster"},
		{"X+Y", "X next to Y, X=(1|7)FLS/(D|K), Y=(RND|SSB|WBS)"},
	}
}
