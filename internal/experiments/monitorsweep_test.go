package experiments

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestMonitorSweepDeterministic runs one monitored case twice with the
// same scale and requires byte-identical telemetry artifacts — windows
// CSV, alert ledger, and totals — the monitor-layer analogue of the
// obs golden test. Any divergence means the monitor leaked wall-clock
// or map-iteration order into its output.
func TestMonitorSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := MonitorCases()[2] // D+adm crash: no calibration run, cheapest case
	r1 := RunMonitorCase(c, QuickScale)
	r2 := RunMonitorCase(c, QuickScale)

	if r1.VictimFired != r2.VictimFired || r1.VictimCleared != r2.VictimCleared ||
		r1.MeasureEnd != r2.MeasureEnd || r1.Windows != r2.Windows {
		t.Fatalf("monitor rows diverged:\n  %+v\nvs\n  %+v", r1, r2)
	}
	for name, write := range map[string]func(*bytes.Buffer, *telemetry.Monitor) error{
		"windows": func(b *bytes.Buffer, m *telemetry.Monitor) error { return m.WriteWindowsCSV(b) },
		"alerts":  func(b *bytes.Buffer, m *telemetry.Monitor) error { return m.WriteAlertsCSV(b) },
		"totals":  func(b *bytes.Buffer, m *telemetry.Monitor) error { return m.WriteTotalsCSV(b) },
	} {
		var b1, b2 bytes.Buffer
		if err := write(&b1, r1.Monitor); err != nil {
			t.Fatal(err)
		}
		if err := write(&b2, r2.Monitor); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s CSV not byte-identical across identical runs", name)
		}
		if b1.Len() == 0 {
			t.Errorf("%s CSV is empty", name)
		}
	}
	if len(r1.Alerts) == 0 {
		t.Fatal("crash case produced an empty alert ledger — nothing was exercised")
	}
}

// TestMonitorSweepAcceptance runs the full sweep at quick scale and
// checks the acceptance story: the admission-protected Danaus client
// fires AND clears its victim alert around the disturbance, while the
// unprotected kernel client is still in violation when the measurement
// window closes.
func TestMonitorSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var rows []MonitorRow
	for _, c := range MonitorCases() {
		rows = append(rows, RunMonitorCase(c, QuickScale))
	}
	for _, r := range rows {
		for _, v := range r.Violations() {
			t.Errorf("%s/%s: %s", r.Label, r.Fault, v)
		}
	}
	var dOver, kOver *MonitorRow
	for i := range rows {
		if rows[i].Fault != "overload" {
			continue
		}
		if rows[i].Config == core.ConfigD {
			dOver = &rows[i]
		} else if rows[i].Config == core.ConfigK {
			kOver = &rows[i]
		}
	}
	if dOver == nil || kOver == nil {
		t.Fatal("sweep is missing the D or K overload case")
	}
	if dOver.VictimFired == 0 || dOver.VictimCleared == 0 || dOver.VictimActiveEnd {
		t.Errorf("D overload: want fire+clear within measurement, got fired=%d cleared=%d activeEnd=%v",
			dOver.VictimFired, dOver.VictimCleared, dOver.VictimActiveEnd)
	}
	if !kOver.VictimActiveEnd {
		t.Errorf("K overload: want sustained violation at measurement end, got fired=%d cleared=%d activeEnd=%v",
			kOver.VictimFired, kOver.VictimCleared, kOver.VictimActiveEnd)
	}
}
