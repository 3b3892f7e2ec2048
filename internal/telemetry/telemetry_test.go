package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestWindowQuantilesMatchHistogram pins the live windows to the same
// latency histogram the harness rows use: a window's p50/p99/p999 and
// mean equal those of a metrics.Histogram fed the same samples, in the
// first window and again after the per-window reset.
func TestWindowQuantilesMatchHistogram(t *testing.T) {
	m := New(Config{FastWindow: time.Second})
	var want [2]*metrics.Histogram
	for w := range want {
		want[w] = metrics.NewHistogram()
		base := time.Duration(w) * time.Second
		for i := 1; i <= 1000; i++ {
			lat := time.Duration(i*(w+1)) * 1013 * time.Nanosecond
			m.RecordOp(base+time.Duration(i)*time.Microsecond, "A", "read", lat, 0, false)
			want[w].Record(lat)
		}
	}
	m.Finalize(2 * time.Second)
	rows := m.Windows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for w, r := range rows {
		h := want[w]
		if r.P50 != h.Quantile(0.50) || r.P99 != h.Quantile(0.99) ||
			r.P999 != h.Quantile(0.999) || r.Mean != h.Mean() {
			t.Errorf("window %d: p50/p99/p999/mean = %v/%v/%v/%v, histogram %v/%v/%v/%v", w,
				r.P50, r.P99, r.P999, r.Mean,
				h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Mean())
		}
	}
}

func TestMonitorWindowsAndTotals(t *testing.T) {
	m := New(Config{FastWindow: time.Second})
	// Window 0: 3 reads for A (one error), 1 write for B.
	m.RecordOp(100*time.Millisecond, "A", "read", 5*time.Millisecond, 4096, false)
	m.RecordOp(200*time.Millisecond, "A", "read", 7*time.Millisecond, 4096, false)
	m.RecordOp(300*time.Millisecond, "A", "read", 9*time.Millisecond, 0, true)
	m.RecordOp(400*time.Millisecond, "B", "write", 2*time.Millisecond, 8192, false)
	// Window 2 (window 1 empty): 1 read for A.
	m.RecordOp(2500*time.Millisecond, "A", "read", 1*time.Millisecond, 100, false)
	m.Finalize(3 * time.Second)

	rows := m.Windows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (A@0, B@0, A@2)", len(rows))
	}
	if rows[0].Tenant != "A" || rows[0].Index != 0 || rows[0].Ops != 3 || rows[0].Errors != 1 || rows[0].Bytes != 8192 {
		t.Errorf("row0 = %+v", rows[0])
	}
	if rows[1].Tenant != "B" || rows[1].Ops != 1 {
		t.Errorf("row1 = %+v", rows[1])
	}
	if rows[2].Tenant != "A" || rows[2].Index != 2 || rows[2].Ops != 1 {
		t.Errorf("row2 = %+v", rows[2])
	}

	tot := m.Totals()
	if len(tot) != 2 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot[0].Tenant != "A" || tot[0].Op != "read" || tot[0].Ops != 4 || tot[0].Errors != 1 ||
		tot[0].Bytes != 8292 || tot[0].LatSum != 22*time.Millisecond {
		t.Errorf("total A/read = %+v", tot[0])
	}
	if tot[1].Tenant != "B" || tot[1].Op != "write" || tot[1].Ops != 1 || tot[1].Bytes != 8192 {
		t.Errorf("total B/write = %+v", tot[1])
	}

	// Finalize is idempotent and further records are ignored.
	m.RecordOp(5*time.Second, "A", "read", time.Millisecond, 1, false)
	m.Finalize(10 * time.Second)
	if len(m.Windows()) != 3 || len(m.Totals()) != 2 {
		t.Error("post-finalize records leaked into windows/totals")
	}
}

func TestMonitorInterferenceTopAggressor(t *testing.T) {
	m := New(Config{FastWindow: time.Second})
	m.RecordOp(10*time.Millisecond, "victim", "read", time.Millisecond, 1, false)
	m.RecordWait(20*time.Millisecond, 3*time.Millisecond, "victim", "agg2")
	m.RecordWait(30*time.Millisecond, 5*time.Millisecond, "victim", "agg1")
	m.RecordWait(40*time.Millisecond, 2*time.Millisecond, "victim", "agg2")
	// Ignored: self-wait and zero duration.
	m.RecordWait(50*time.Millisecond, time.Millisecond, "victim", "victim")
	m.RecordWait(60*time.Millisecond, 0, "victim", "agg1")
	m.Finalize(time.Second)

	rows := m.Windows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// agg1 and agg2 both at 5ms: deterministic tie-break by name.
	if rows[0].TopAggressor != "agg1" || rows[0].TopAggressorWait != 5*time.Millisecond {
		t.Errorf("top aggressor = %q/%v, want agg1/5ms", rows[0].TopAggressor, rows[0].TopAggressorWait)
	}
}

func TestMonitorAdmissionProbe(t *testing.T) {
	shed := uint64(0)
	queued := 0
	m := New(Config{FastWindow: time.Second, SampleInterval: 100 * time.Millisecond})
	m.SetAdmissionProbe(func() []AdmissionSample {
		return []AdmissionSample{{Tenant: "A", Queued: queued, Shed: shed}}
	})
	m.RecordOp(50*time.Millisecond, "A", "read", time.Millisecond, 1, false)
	queued, shed = 7, 3
	m.Tick(200 * time.Millisecond)
	queued, shed = 2, 5
	m.Tick(400 * time.Millisecond)
	// Window 1: shed grows to 9.
	queued, shed = 1, 9
	m.RecordOp(1100*time.Millisecond, "A", "read", time.Millisecond, 1, false)
	m.Tick(1200 * time.Millisecond)
	m.Finalize(2 * time.Second)

	rows := m.Windows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Queued != 7 || rows[0].Shed != 5 {
		t.Errorf("window0 queued=%d shed=%d, want 7/5", rows[0].Queued, rows[0].Shed)
	}
	if rows[1].Queued != 1 || rows[1].Shed != 4 {
		t.Errorf("window1 queued=%d shed=%d, want 1/4", rows[1].Queued, rows[1].Shed)
	}
}

// alertSLO returns a 1%-budget latency SLO that fires at burn 10 and
// clears below 1, needing at least 5 ops per fast window.
func alertSLO() SLO {
	return SLO{Name: "p99", Op: "read", Target: 10 * time.Millisecond,
		Budget: 0.01, FireBurn: 10, ClearBurn: 1, MinOps: 5}
}

func TestSLOFireAndClear(t *testing.T) {
	m := New(Config{FastWindow: time.Second, SlowWindow: 4 * time.Second, SLOs: []SLO{alertSLO()}})
	step := func(win int64, lat time.Duration) {
		base := time.Duration(win) * time.Second
		for i := 0; i < 10; i++ {
			m.RecordOp(base+time.Duration(i+1)*50*time.Millisecond, "A", "read", lat, 1, false)
		}
	}
	// Windows 0-1 healthy, 2-4 violating (all ops over target -> burn
	// 100 in fast and climbing in slow), 5-9 healthy again.
	for w := int64(0); w < 10; w++ {
		lat := time.Millisecond
		if w >= 2 && w <= 4 {
			lat = 50 * time.Millisecond
		}
		step(w, lat)
	}
	m.Finalize(10 * time.Second)

	alerts := m.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %v, want fire+clear", alerts)
	}
	fire, clear := alerts[0], alerts[1]
	if fire.State != AlertFiring || fire.Tenant != "A" || fire.SLO != "p99" {
		t.Errorf("fire = %+v", fire)
	}
	if fire.T != 3*time.Second {
		t.Errorf("fire at %v, want 3s (close of first violating window)", fire.T)
	}
	if clear.State != AlertClear || clear.T <= fire.T {
		t.Errorf("clear = %+v", clear)
	}
	if fire.FastBurn < 99 || fire.SlowBurn < 10 {
		t.Errorf("burns at fire: fast=%.1f slow=%.1f", fire.FastBurn, fire.SlowBurn)
	}
}

func TestSLOSingleBadWindowDoesNotFire(t *testing.T) {
	// One violating fast window inside a long slow window must not trip
	// the slow burn: the multi-window rule suppresses blips.
	m := New(Config{FastWindow: time.Second, SlowWindow: 60 * time.Second, SLOs: []SLO{alertSLO()}})
	for w := int64(0); w < 30; w++ {
		base := time.Duration(w) * time.Second
		lat := time.Millisecond
		if w == 10 {
			lat = 50 * time.Millisecond
		}
		for i := 0; i < 10; i++ {
			m.RecordOp(base+time.Duration(i+1)*50*time.Millisecond, "A", "read", lat, 1, false)
		}
	}
	m.Finalize(30 * time.Second)
	if len(m.Alerts()) != 0 {
		t.Fatalf("alerts = %v, want none for a single bad window", m.Alerts())
	}
}

func TestSLOErrorRate(t *testing.T) {
	slo := SLO{Name: "errors", Budget: 0.01, FireBurn: 10, ClearBurn: 1, MinOps: 5}
	m := New(Config{FastWindow: time.Second, SlowWindow: 2 * time.Second, SLOs: []SLO{slo}})
	for i := 0; i < 10; i++ {
		m.RecordOp(time.Duration(i+1)*50*time.Millisecond, "A", "read", time.Millisecond, 1, i%2 == 0)
	}
	m.Finalize(time.Second)
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].State != AlertFiring {
		t.Fatalf("alerts = %v, want one fire (50%% errors vs 1%% budget)", alerts)
	}
}

func TestSLOPinnedTenant(t *testing.T) {
	slo := alertSLO()
	slo.Tenant = "A"
	m := New(Config{FastWindow: time.Second, SlowWindow: 2 * time.Second, SLOs: []SLO{slo}})
	for i := 0; i < 10; i++ {
		ts := time.Duration(i+1) * 50 * time.Millisecond
		m.RecordOp(ts, "A", "read", 50*time.Millisecond, 1, false)
		m.RecordOp(ts, "B", "read", 50*time.Millisecond, 1, false)
	}
	m.Finalize(time.Second)
	alerts := m.Alerts()
	if len(alerts) != 1 || alerts[0].Tenant != "A" {
		t.Fatalf("alerts = %v, want exactly one for pinned tenant A", alerts)
	}
}

func TestSLOExpectedOpsShortfall(t *testing.T) {
	// A throughput floor of 10 ops/window with an armed interval covering
	// the whole run: windows 2-3 starve completely, so the shortfall
	// alone must fire the alert even though every completed op is fast.
	slo := SLO{Name: "floor", Op: "read", Target: 10 * time.Millisecond,
		Budget: 0.05, FireBurn: 2, ClearBurn: 1, MinOps: 1, ExpectedOps: 10}
	m := New(Config{FastWindow: time.Second, SlowWindow: 2 * time.Second, SLOs: []SLO{slo}})
	m.ArmSLOs(0, 0)
	for w := int64(0); w < 6; w++ {
		if w >= 2 && w <= 3 {
			continue // total starvation
		}
		base := time.Duration(w) * time.Second
		for i := 0; i < 10; i++ {
			m.RecordOp(base+time.Duration(i+1)*50*time.Millisecond, "A", "read", time.Millisecond, 1, false)
		}
	}
	m.Finalize(6 * time.Second)
	alerts := m.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %v, want fire during starvation + clear after", alerts)
	}
	if alerts[0].State != AlertFiring || alerts[0].T != 3*time.Second {
		t.Errorf("fire = %+v, want firing at 3s (close of first starved window)", alerts[0])
	}
	if alerts[1].State != AlertClear {
		t.Errorf("clear = %+v", alerts[1])
	}
}

func TestSLOExpectedOpsUnarmedNoPenalty(t *testing.T) {
	// The same starvation with SLO counting never armed: idle windows
	// must not read as outages (prep and drain phases look exactly like
	// this).
	slo := SLO{Name: "floor", Op: "read", Budget: 0.05, FireBurn: 2, ClearBurn: 1,
		MinOps: 1, ExpectedOps: 10}
	m := New(Config{FastWindow: time.Second, SlowWindow: 2 * time.Second, SLOs: []SLO{slo}})
	m.ArmSLOs(time.Duration(1<<62), 0)
	m.RecordOp(100*time.Millisecond, "A", "read", time.Millisecond, 1, false)
	m.Finalize(6 * time.Second)
	if len(m.Alerts()) != 0 {
		t.Fatalf("alerts = %v, want none while unarmed", m.Alerts())
	}
}

func TestArmSLOsInterval(t *testing.T) {
	// Errors before armAt and after disarmAt bypass SLO counting; the
	// windowed aggregates still see every op.
	slo := SLO{Name: "errors", Budget: 0.01, FireBurn: 2, ClearBurn: 1, MinOps: 1}
	m := New(Config{FastWindow: time.Second, SlowWindow: 2 * time.Second, SLOs: []SLO{slo}})
	m.ArmSLOs(2*time.Second, 4*time.Second)
	for w := int64(0); w < 6; w++ {
		base := time.Duration(w) * time.Second
		for i := 0; i < 10; i++ {
			// Every op errors in windows 0-1 (pre-arm) and 4-5 (post-
			// disarm); windows 2-3 are clean.
			err := w < 2 || w >= 4
			m.RecordOp(base+time.Duration(i+1)*50*time.Millisecond, "A", "read", time.Millisecond, 1, err)
		}
	}
	m.Finalize(6 * time.Second)
	if len(m.Alerts()) != 0 {
		t.Fatalf("alerts = %v, want none — every error fell outside the armed interval", m.Alerts())
	}
	tot := m.Totals()
	if len(tot) != 1 || tot[0].Ops != 60 || tot[0].Errors == 0 {
		t.Fatalf("totals must still count unarmed ops: %+v", tot)
	}
}

func TestArmSLOsStraddlingWindowNoPenalty(t *testing.T) {
	// The ExpectedOps penalty applies only to windows FULLY inside the
	// armed interval. Window 1 straddles armAt (spans 1s-2s, arm at
	// 1.5s): its ops complete pre-arm so the SLO tallies zero — if the
	// window were treated as armed, the shortfall penalty would read
	// 10 missing ops at burn 20 and fire at t=2s. The exemption keeps
	// it silent.
	slo := SLO{Name: "floor", Budget: 0.05, FireBurn: 2, ClearBurn: 1,
		MinOps: 1, ExpectedOps: 10}
	m := New(Config{FastWindow: time.Second, SlowWindow: 2 * time.Second, SLOs: []SLO{slo}})
	m.ArmSLOs(1500*time.Millisecond, 0)
	for i := 0; i < 10; i++ {
		m.RecordOp(time.Second+time.Duration(i+1)*40*time.Millisecond, "A", "read", time.Millisecond, 1, false)
		m.RecordOp(2*time.Second+time.Duration(i+1)*40*time.Millisecond, "A", "read", time.Millisecond, 1, false)
	}
	m.Finalize(3 * time.Second)
	if len(m.Alerts()) != 0 {
		t.Fatalf("alerts = %v, want none — the straddling window is exempt from the shortfall penalty", m.Alerts())
	}
}

func TestNilMonitorSafe(t *testing.T) {
	var m *Monitor
	m.RecordOp(0, "A", "read", 0, 0, false)
	m.RecordWait(0, time.Millisecond, "A", "B")
	m.Tick(time.Second)
	m.Finalize(time.Second)
	m.SetAdmissionProbe(nil)
	if m.Windows() != nil || m.Alerts() != nil || m.Totals() != nil {
		t.Error("nil monitor returned data")
	}
	var buf bytes.Buffer
	if err := m.WriteWindowsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAlertsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteTotalsCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestExportDeterminism(t *testing.T) {
	run := func() (string, string, string) {
		m := New(Config{FastWindow: time.Second, SlowWindow: 3 * time.Second, SLOs: []SLO{alertSLO()}})
		for w := int64(0); w < 6; w++ {
			base := time.Duration(w) * time.Second
			lat := time.Millisecond
			if w >= 2 && w <= 3 {
				lat = 50 * time.Millisecond
			}
			for i := 0; i < 8; i++ {
				m.RecordOp(base+time.Duration(i+1)*100*time.Millisecond, "A", "read", lat, 512, false)
				m.RecordOp(base+time.Duration(i+1)*100*time.Millisecond, "B", "write", lat/2, 256, i == 0)
			}
			m.RecordWait(base+500*time.Millisecond, 2*time.Millisecond, "A", "B")
		}
		m.Finalize(6 * time.Second)
		var w1, w2, w3 bytes.Buffer
		if err := m.WriteWindowsCSV(&w1); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteAlertsCSV(&w2); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteTotalsCSV(&w3); err != nil {
			t.Fatal(err)
		}
		return w1.String(), w2.String(), w3.String()
	}
	a1, a2, a3 := run()
	b1, b2, b3 := run()
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatal("exports differ across identical runs")
	}
	if len(a2) <= len("t_us,tenant,slo,state,fast_burn,slow_burn\n") {
		t.Fatal("alert ledger empty — scenario should fire")
	}
}

// TestCSVRoundTrip: the readers return what the writers wrote, at the
// files' microsecond and 4-decimal resolution, quoted tenant names
// included.
func TestCSVRoundTrip(t *testing.T) {
	m := New(Config{FastWindow: time.Second, SlowWindow: 3 * time.Second, SLOs: []SLO{alertSLO()}})
	for w := int64(0); w < 6; w++ {
		base := time.Duration(w) * time.Second
		lat := 1234567 * time.Nanosecond
		if w >= 2 && w <= 3 {
			lat *= 40
		}
		for i := 0; i < 8; i++ {
			m.RecordOp(base+time.Duration(i+1)*100*time.Millisecond, `A,"1"`, "read", lat, 512, false)
			m.RecordOp(base+time.Duration(i+1)*100*time.Millisecond, "B", "write", lat/2, 256, i == 0)
		}
		m.RecordWait(base+500*time.Millisecond, 2*time.Millisecond, `A,"1"`, "B")
	}
	m.Finalize(6 * time.Second)
	var wb, ab bytes.Buffer
	if err := m.WriteWindowsCSV(&wb); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAlertsCSV(&ab); err != nil {
		t.Fatal(err)
	}

	windows, err := ReadWindowsCSV(&wb, "w.csv")
	if err != nil {
		t.Fatal(err)
	}
	us := func(d *time.Duration) { *d = d.Truncate(time.Microsecond) }
	want := m.Windows()
	for i := range want {
		r := &want[i]
		for _, d := range []*time.Duration{&r.Start, &r.End, &r.P50, &r.P99, &r.P999, &r.Mean, &r.TopAggressorWait} {
			us(d)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(windows, want) {
		t.Errorf("windows read back as\n%+v\nwant\n%+v", windows, want)
	}

	alerts, err := ReadAlertsCSV(&ab, "a.csv")
	if err != nil {
		t.Fatal(err)
	}
	wantAlerts := m.Alerts()
	if len(alerts) != len(wantAlerts) || len(alerts) == 0 {
		t.Fatalf("read %d alert(s), want %d (> 0)", len(alerts), len(wantAlerts))
	}
	for i, a := range alerts {
		w := wantAlerts[i]
		if a.T != w.T.Truncate(time.Microsecond) || a.Tenant != w.Tenant || a.SLO != w.SLO || a.State != w.State ||
			math.Abs(a.FastBurn-w.FastBurn) > 5e-5 || math.Abs(a.SlowBurn-w.SlowBurn) > 5e-5 {
			t.Errorf("alert %d read back as %+v, want %+v", i, a, w)
		}
	}
}

func TestWindowRingEviction(t *testing.T) {
	m := New(Config{FastWindow: time.Second, MaxWindows: 4})
	for w := int64(0); w < 10; w++ {
		m.RecordOp(time.Duration(w)*time.Second+time.Millisecond, "A", "read", time.Millisecond, 1, false)
	}
	m.Finalize(10 * time.Second)
	if len(m.Windows()) != 4 {
		t.Fatalf("retained = %d, want 4", len(m.Windows()))
	}
	if m.EvictedWindows() != 6 {
		t.Fatalf("evicted = %d, want 6", m.EvictedWindows())
	}
	// Totals survive eviction.
	tot := m.Totals()
	if len(tot) != 1 || tot[0].Ops != 10 {
		t.Fatalf("totals after eviction = %+v", tot)
	}
}
