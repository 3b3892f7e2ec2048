package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// hostModules are the repro/internal packages whose share of host CPU
// the profile pass reports. Samples in any other repro package count
// as other.
var hostModules = []string{
	"sim", "cpu", "kern", "fusefs", "ipc", "cephclient", "unionfs", "cluster", "netsim", "disk",
	"memfs", "extent", "nstree", "kvstore", "vfsapi", "workloads", "core", "metrics", "obs",
	"telemetry", "model", "memacct",
}

// Buckets for samples charged to no module.
const (
	bucketSwitch = "runtime.switch" // goroutine handoff: chan ops, park/ready, scheduler, futex
	bucketAlloc  = "runtime.alloc"  // allocation under a repro frame
	bucketGC     = "runtime.gc"     // background GC workers
	bucketOther  = "other"
)

var shareBuckets = []string{bucketSwitch, bucketAlloc, bucketGC, bucketOther}

// The runtime frames each bucket recognises. A switch or allocation
// frame counts only when it lies leafward of every repro frame: a
// sample in cpu code called from a channel receive is cpu's.
var (
	switchExact = map[string]bool{
		"runtime.gopark": true, "runtime.goready": true, "runtime.park_m": true,
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.mcall": true,
	}
	switchPrefix = []string{"runtime.chansend", "runtime.chanrecv", "runtime.futex"}
	allocExact   = map[string]bool{"runtime.growslice": true, "runtime.newobject": true, "runtime.makeslice": true}
	allocPrefix  = []string{"runtime.mallocgc"}
	gcRoots      = map[string]bool{"runtime.gcBgMarkWorker": true, "runtime.bgsweep": true, "runtime.bgscavenge": true}
)

func matches(f string, exact map[string]bool, prefixes []string) bool {
	if exact[f] {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// reproModule returns the repro/internal package of frame f, or "".
func reproModule(f string) string {
	rest, ok := strings.CutPrefix(f, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// classify charges one stack, leaf first, to a module or a bucket. A
// stack whose leaf-most frame of package main lies leafward of every
// repro frame is the benchmark's own code, such as the engine tracer
// the simulator calls, and counts as other.
func classify(frames []string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return bucketGC
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return bucketOther
		}
		if reproModule(f) != "" {
			break
		}
	}
	for i, f := range frames {
		if matches(f, switchExact, switchPrefix) {
			return bucketSwitch
		}
		if matches(f, allocExact, allocPrefix) {
			for _, g := range frames[i+1:] {
				if reproModule(g) != "" {
					return bucketAlloc
				}
			}
			return bucketOther
		}
		if m := reproModule(f); m != "" {
			for _, h := range hostModules {
				if m == h {
					return m
				}
			}
			return bucketOther
		}
	}
	return bucketOther
}

// foldTraces reads the output of `go tool pprof -traces` and returns
// each module's and bucket's share of the sampled CPU time.
func foldTraces(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	weight := map[string]float64{}
	var total, value float64
	var frames []string
	inBlock := false
	flush := func() {
		if len(frames) > 0 {
			weight[classify(frames)] += value
			total += value
		}
		frames, value = frames[:0], 0
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			v, ok := parseSampleValue(fields[0])
			if !ok || len(fields) < 2 {
				continue // a label line
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile has no samples")
	}
	shares := map[string]float64{}
	for k, v := range weight {
		shares[k] = v / total
	}
	return shares, nil
}

// parseSampleValue parses a pprof CPU time such as "10ms" or "1.20s"
// into seconds.
func parseSampleValue(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}
