package blame

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
)

// WhatIf is a parameterized virtual speedup applied to the cost model
// for a deterministic re-run, plus the arithmetic to predict its
// effect from a baseline blame report. The zero value (and scale 1)
// means "unchanged".
type WhatIf struct {
	// Spec is the original user spec string, kept for labels.
	Spec string `json:"spec"`
	// NICScale multiplies client and server NIC bandwidth (2 = "nic=2x").
	NICScale float64 `json:"nic_scale,omitempty"`
	// OSDScale multiplies OSD ramdisk bandwidth.
	OSDScale float64 `json:"osd_scale,omitempty"`
	// LockCSScale multiplies kernel and client lock critical-section
	// hold times (0.5 = halved sections, "lockcs=0.5").
	LockCSScale float64 `json:"lockcs_scale,omitempty"`
	// FlusherPinned repins kernel flusher threads off the pool cores
	// ("flusher=pinned"); the rig decides the actual mask.
	FlusherPinned bool `json:"flusher_pinned,omitempty"`
}

// ParseWhatIf parses a spec like "nic=2x,osd=2x,lockcs=0.5,flusher=pinned".
// Any subset of knobs may appear; unknown keys or malformed values are
// errors. A scale must be finite, and applied to the default cost
// model it must leave every rate it multiplies a positive int64 and
// every hold a positive int64 too, or 0 under lockcs=0. An error names
// the knob.
func ParseWhatIf(spec string) (WhatIf, error) {
	w := WhatIf{Spec: spec, NICScale: 1, OSDScale: 1, LockCSScale: 1}
	def := model.Default()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return w, fmt.Errorf("what-if: %q is not key=value", part)
		}
		switch key {
		case "nic", "osd":
			f, err := strconv.ParseFloat(strings.TrimSuffix(val, "x"), 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return w, fmt.Errorf("what-if: %s: bad scale %q (want a finite positive scale, e.g. %s=2x)", key, part, key)
			}
			vals := []int64{def.OSDRamdiskBytesPerSec}
			if key == "nic" {
				w.NICScale = f
				vals = []int64{def.ClientNICBytesPerSec, def.ServerNICBytesPerSec}
			} else {
				w.OSDScale = f
			}
			if err := scalable(key, f, vals, "bandwidth"); err != nil {
				return w, err
			}
		case "lockcs":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f >= 0) || math.IsInf(f, 0) {
				return w, fmt.Errorf("what-if: lockcs: bad fraction %q (want a finite fraction, e.g. lockcs=0.5)", part)
			}
			w.LockCSScale = f
			if f > 0 {
				holds := []int64{int64(def.LRULockHoldPerPage), int64(def.IMutexHold),
					int64(def.WritebackLockHold), int64(def.ClientLockHold)}
				if err := scalable(key, f, holds, "hold"); err != nil {
					return w, err
				}
			}
		case "flusher":
			if val != "pinned" {
				return w, fmt.Errorf("what-if: flusher: unknown mode %q (want flusher=pinned)", val)
			}
			w.FlusherPinned = true
		default:
			return w, fmt.Errorf("what-if: unknown knob %q", key)
		}
	}
	return w, nil
}

// scalable reports, naming knob, a scale f that takes one of vals out
// of the positive int64s.
func scalable(knob string, f float64, vals []int64, what string) error {
	for _, v := range vals {
		if x := float64(v) * f; !(x >= 1 && x < 1<<63) {
			return fmt.Errorf("what-if: %s: scale %g takes a %s of %d to %g, not a positive int64", knob, f, what, v, x)
		}
	}
	return nil
}

// Apply rewrites the cost model in place for the re-run. Pinning is
// not a Params knob; the experiment rig applies it via
// kern.Kernel.SetFlusherMask.
func (w WhatIf) Apply(p *model.Params) {
	if w.NICScale > 0 && w.NICScale != 1 {
		p.ClientNICBytesPerSec = int64(float64(p.ClientNICBytesPerSec) * w.NICScale)
		p.ServerNICBytesPerSec = int64(float64(p.ServerNICBytesPerSec) * w.NICScale)
	}
	if w.OSDScale > 0 && w.OSDScale != 1 {
		p.OSDRamdiskBytesPerSec = int64(float64(p.OSDRamdiskBytesPerSec) * w.OSDScale)
	}
	if w.LockCSScale != 1 {
		scale := func(d time.Duration) time.Duration {
			return time.Duration(float64(d) * w.LockCSScale)
		}
		p.LRULockHoldPerPage = scale(p.LRULockHoldPerPage)
		p.IMutexHold = scale(p.IMutexHold)
		p.WritebackLockHold = scale(p.WritebackLockHold)
		p.ClientLockHold = scale(p.ClientLockHold)
	}
}

// Predict estimates, from the baseline decomposition alone, each
// tenant's mean request latency under the what-if: time in a sped-up
// bucket shrinks proportionally (a k× faster resource keeps 1/k of the
// time), lock-wait time scales with the critical sections feeding it,
// and pinning the flushers removes the runqueue interference the
// kernel account inflicted. Means (not totals) are used so predictions
// stay comparable when the re-run completes a different number of
// requests.
func (w WhatIf) Predict(base Report) map[string]time.Duration {
	// Kernel-attributed runqueue interference per victim, for pinning.
	kernRunq := map[string]time.Duration{}
	for _, c := range base.Interference {
		if c.Resource == "cpu" && c.Aggressor == "kernel" {
			kernRunq[c.Victim] += c.Wait
		}
	}
	out := make(map[string]time.Duration, len(base.Tenants))
	for _, t := range base.Tenants {
		if t.Requests == 0 {
			continue
		}
		saved := 0.0
		if w.NICScale > 1 {
			saved += float64(BucketDur(t.Buckets, BucketNet)) * (1 - 1/w.NICScale)
		}
		if w.OSDScale > 1 {
			saved += float64(BucketDur(t.Buckets, BucketOSD)) * (1 - 1/w.OSDScale)
		}
		if w.LockCSScale < 1 {
			var lockWait time.Duration
			for _, b := range t.Buckets {
				if strings.HasPrefix(b.Name, "lock:") {
					lockWait += b.Dur
				}
			}
			saved += float64(lockWait) * (1 - w.LockCSScale)
		}
		if w.FlusherPinned {
			saved += float64(kernRunq[t.Tenant])
		}
		mean := float64(t.Total) / float64(t.Requests)
		pred := mean - saved/float64(t.Requests)
		if pred < 0 {
			pred = 0
		}
		out[t.Tenant] = time.Duration(pred)
	}
	return out
}

// WhatIfRow compares one tenant's mean request latency across the
// baseline run, the decomposition-based prediction, and the measured
// re-run under the modified model.
type WhatIfRow struct {
	Tenant    string        `json:"tenant"`
	Baseline  time.Duration `json:"baseline_mean_ns"`
	Predicted time.Duration `json:"predicted_mean_ns"`
	Measured  time.Duration `json:"measured_mean_ns"`
}

// WhatIfReport is the artifact of one what-if experiment.
type WhatIfReport struct {
	Label string      `json:"label"`
	Spec  string      `json:"spec"`
	Rows  []WhatIfRow `json:"rows"`
}

// CompareWhatIf joins the baseline report, its prediction, and the
// measured re-run into per-tenant rows sorted by tenant.
func CompareWhatIf(w WhatIf, base, measured Report) WhatIfReport {
	rep := WhatIfReport{Label: base.Label, Spec: w.Spec}
	pred := w.Predict(base)
	meas := map[string]time.Duration{}
	for _, t := range measured.Tenants {
		if t.Requests > 0 {
			meas[t.Tenant] = t.Total / time.Duration(t.Requests)
		}
	}
	for _, t := range base.Tenants {
		if t.Requests == 0 {
			continue
		}
		rep.Rows = append(rep.Rows, WhatIfRow{
			Tenant:    t.Tenant,
			Baseline:  t.Total / time.Duration(t.Requests),
			Predicted: pred[t.Tenant],
			Measured:  meas[t.Tenant],
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Tenant < rep.Rows[j].Tenant })
	return rep
}

// RenderWhatIf writes the comparison as a text table with the
// prediction error against the measured re-run.
func RenderWhatIf(wr io.Writer, rep WhatIfReport) {
	fmt.Fprintf(wr, "what-if %q (%s): mean request latency\n", rep.Spec, rep.Label)
	fmt.Fprintf(wr, "%-12s %14s %14s %14s %10s\n",
		"tenant", "baseline", "predicted", "measured", "pred.err")
	for _, r := range rep.Rows {
		errPct := "-"
		if r.Measured > 0 {
			errPct = fmt.Sprintf("%+.1f%%",
				100*float64(r.Predicted-r.Measured)/float64(r.Measured))
		}
		fmt.Fprintf(wr, "%-12s %14s %14s %14s %10s\n",
			r.Tenant,
			r.Baseline.Round(time.Microsecond),
			r.Predicted.Round(time.Microsecond),
			r.Measured.Round(time.Microsecond),
			errPct)
	}
}
