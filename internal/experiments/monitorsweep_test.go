package experiments

import (
	"bytes"
	"testing"

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

// TestMonitorSweepAcceptance runs the full sweep at quick scale, once,
// and checks the acceptance story through the rows' Violations: the
// admission-protected Danaus client fires AND clears its victim alert
// around the disturbance, while the unprotected kernel client is still
// in violation when the measurement window closes. The section must
// also match testdata/golden/harness-quick.txt byte for byte, which
// pins every fired and cleared count and every end state.
func TestMonitorSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	checkQuickSection(t, "monitorsweep")
}
