package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDecl is a metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports: what running the
// simulator costs its user, per pass over a workload's matrix.
var endToEnd = []metricDecl{
	{"wall_s", "s", "lower"},
	{"sim_ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"maxrss_mb", "MB", "lower"},
}

// configFamilies are the client stacks config.<family>.wall_s splits
// a pass into.
var configFamilies = []string{"D", "F", "K"}

// perLayer lists the metrics a traced run reports.
func perLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit string) { out = append(out, metricDecl{name, unit, "lower"}) }
	add("core.build_s", "s")
	add("workloads.prepare_s", "s")
	add("workloads.measure_s", "s")
	for _, f := range configFamilies {
		add("config."+f+".wall_s", "s")
	}
	for _, m := range hostModules {
		add("host."+m+".cpu_share", "fraction")
	}
	for _, b := range shareBuckets {
		add("host."+b+"_share", "fraction")
	}
	add("host.wall_s", "s")
	add("host.probe_ms", "ms")
	add("host.cpu_s", "s")
	add("host.gc_cycles", "count")
	for _, n := range []string{"events", "callbacks", "resumes", "proc_switches", "procs"} {
		add("sim."+n, "count")
	}
	add("sim.host_ns_per_event", "ns")
	for _, l := range stackLayers {
		add("stack."+string(l)+".spans", "count")
		add("stack."+string(l)+".sim_s", "sim_s")
	}
	for _, k := range waitKinds {
		add("wait."+k+".sim_s", "sim_s")
	}
	add("trace.overhead", "ratio")
	return out
}

// series is one metric's values over the passes of a run.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// A phase function gives the time of one phase of case c of pass p in
// reference seconds.
type phaseFunc func(p pass, c caseResult) float64

func caseWall(p pass, c caseResult) float64    { return p.ref(c, 0, c.End) }
func caseBuild(p pass, c caseResult) float64   { return p.ref(c, 0, c.Built) }
func casePrepare(p pass, c caseResult) float64 { return p.ref(c, c.PrepStart, c.MeasureStart) }
func caseSetup(p pass, c caseResult) float64   { return caseBuild(p, c) + casePrepare(p, c) }
func caseMeasure(p pass, c caseResult) float64 { return p.ref(c, c.MeasureStart, c.MeasureEnd) }

// caseMedians sums, over the cases that keep returns true for, each
// case's median over the passes of f. The passes run the same cases in
// the same order.
func caseMedians(ps []pass, f phaseFunc, keep func(namedCase) bool) float64 {
	var total float64
	for i, c := range ps[0].Cases {
		if !keep(c) {
			continue
		}
		vs := make([]float64, len(ps))
		for j, p := range ps {
			vs[j] = f(p, p.Cases[i].caseResult)
		}
		total += median(vs)
	}
	return total
}

func allCases(namedCase) bool { return true }

// maxRSSMB is the largest over the cases of each case's smallest peak
// resident set over the passes, in 10^6 bytes. A case's peak is its
// live heap plus however far the heap grew past it before the next
// collection; where the collections fall varies between passes, and
// moved fileserver's F-8 peak between 450 and 573 MB at one seed. The
// smallest peak is the case's footprint.
func maxRSSMB(ps []pass) float64 {
	var peak float64
	for i := range ps[0].Cases {
		least := ps[0].Cases[i].MaxRSSKiB
		for _, p := range ps {
			least = min(least, p.Cases[i].MaxRSSKiB)
		}
		peak = max(peak, float64(least)*1024/1e6)
	}
	return peak
}

// plainMetrics gives the end-to-end metrics of a run's passes: each
// time is the sum of the cases' median times in reference seconds,
// alloc_mb the median over the passes, and maxrss_mb is maxRSSMB.
func plainMetrics(ps []pass) map[string]float64 {
	ops, _ := ps[0].ops()
	var alloc []float64
	for _, p := range ps {
		alloc = append(alloc, float64(p.AllocBytes)/1e6)
	}
	return map[string]float64{
		"wall_s":        caseMedians(ps, caseWall, allCases),
		"setup_s":       caseMedians(ps, caseSetup, allCases),
		"sim_ops_per_s": float64(ops) / caseMedians(ps, caseMeasure, allCases),
		"alloc_mb":      median(alloc),
		"maxrss_mb":     maxRSSMB(ps),
	}
}

// passSeries gives the end-to-end times of each pass, summed over its
// cases in reference seconds, for the spread printed on standard error.
func passSeries(ps []pass) series {
	s := series{}
	for _, p := range ps {
		var wall, setup, measure float64
		for _, c := range p.Cases {
			wall += caseWall(p, c.caseResult)
			setup += caseSetup(p, c.caseResult)
			measure += caseMeasure(p, c.caseResult)
		}
		ops, _ := p.ops()
		s.add("wall_s", wall)
		s.add("setup_s", setup)
		s.add("sim_ops_per_s", float64(ops)/measure)
		s.add("alloc_mb", float64(p.AllocBytes)/1e6)
		s.add("maxrss_mb", maxRSSMB([]pass{p}))
	}
	return s
}

// layerMetrics gives the phase times of a run's passes, as sums of case
// medians in reference seconds, and medians of the raw host
// measurements: wall time, probe job time, CPU time and GC cycles.
func layerMetrics(ps []pass) map[string]float64 {
	m := map[string]float64{
		"core.build_s":        caseMedians(ps, caseBuild, allCases),
		"workloads.prepare_s": caseMedians(ps, casePrepare, allCases),
		"workloads.measure_s": caseMedians(ps, caseMeasure, allCases),
	}
	for _, f := range configFamilies {
		m["config."+f+".wall_s"] = caseMedians(ps, caseWall, func(c namedCase) bool { return c.Family == f })
	}
	var wall, probes, cpu, gc []float64
	for _, p := range ps {
		var w time.Duration
		for _, c := range p.Cases {
			w += c.End
		}
		wall = append(wall, w.Seconds())
		for _, s := range p.Probe {
			probes = append(probes, float64(s.Took)/float64(time.Millisecond))
		}
		cpu = append(cpu, p.CPU.Seconds())
		gc = append(gc, float64(p.GCCycles))
	}
	m["host.wall_s"] = median(wall)
	m["host.probe_ms"] = median(probes)
	m["host.cpu_s"] = median(cpu)
	m["host.gc_cycles"] = median(gc)
	return m
}

// tracedMetrics combines the children of a traced run: the untraced
// passes, the profile pass with its folded shares, and the obs pass.
func tracedMetrics(plain []pass, prof, obsRep report, shares map[string]float64) map[string]float64 {
	m := layerMetrics(plain)
	for _, mod := range hostModules {
		m["host."+mod+".cpu_share"] = shares[mod]
	}
	for _, b := range shareBuckets {
		m["host."+b+"_share"] = shares[b]
	}
	e := prof.Engine
	m["sim.events"] = float64(e.events())
	m["sim.callbacks"] = float64(e.Callbacks)
	m["sim.resumes"] = float64(e.Resumes)
	m["sim.proc_switches"] = float64(e.ProcSwitches)
	m["sim.procs"] = float64(e.Procs)
	w := plainMetrics(plain)["wall_s"]
	m["sim.host_ns_per_event"] = w * 1e9 / float64(e.events())
	m["trace.overhead"] = caseMedians([]pass{prof.Pass}, caseWall, allCases) / w
	for k, v := range obsRep.Stack {
		m[k] = v
	}
	return m
}

// median of vs (vs is not modified).
func median(vs []float64) float64 { return quartiles(vs)[1] }

// quartiles returns the first quartile, median and third quartile of
// vs with the exclusive method of Python's statistics.quantiles(n=4),
// the rule the benchmark's spread is judged by.
func quartiles(vs []float64) [3]float64 {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// printSeries writes each metric's median, quartiles and count.
func printSeries(w io.Writer, title string, s series, decls []metricDecl) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range decls {
		vs, ok := s[d.Name]
		if !ok {
			continue
		}
		q := quartiles(vs)
		fmt.Fprintf(w, "  %-22s median %-12.6g p25 %-12.6g p75 %-12.6g n=%d %s\n", d.Name, q[1], q[0], q[2], len(vs), d.Unit)
	}
}
