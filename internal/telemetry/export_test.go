package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

const (
	sampleWindows = windowsHeader + "\n" +
		"0,0,1000000,A,8,1,4096,120,5000,5000,900,2,0,B,2000\n" +
		"1,1000000,2000000,\"A,\"\"1\"\"\",3,0,512,80,90,90,85,0,1,,0\n"
	sampleAlerts = alertsHeader + "\n" +
		"1500000,A,p99,firing,14.4000,6.0000\n" +
		"3000000,\"A,\"\"1\"\"\",p99,clear,0.0000,0.9500\n"
)

// TestReadCSVRejectsOverflow: a duration past time.Duration's range is
// an error naming the line and the field, not a wrapped value.
func TestReadCSVRejectsOverflow(t *testing.T) {
	if rows, err := ReadWindowsCSV(strings.NewReader(sampleWindows), "w.csv"); err != nil || len(rows) != 2 {
		t.Fatalf("sample windows: %d row(s), %v", len(rows), err)
	}
	if events, err := ReadAlertsCSV(strings.NewReader(sampleAlerts), "a.csv"); err != nil || len(events) != 2 {
		t.Fatalf("sample alerts: %d event(s), %v", len(events), err)
	}
	in := strings.Replace(sampleWindows, "\n1,1000000,", "\n1,9223372036854776,", 1)
	rows, err := ReadWindowsCSV(strings.NewReader(in), "w.csv")
	if want := `w.csv:3: start_us: bad value "9223372036854776"`; err == nil || err.Error() != want {
		t.Fatalf("read %+v, err %v; want %s", rows, err, want)
	}
	in = strings.Replace(sampleAlerts, "\n3000000,", "\n-9223372036854776,", 1)
	if _, err := ReadAlertsCSV(strings.NewReader(in), "a.csv"); err == nil || !strings.HasPrefix(err.Error(), "a.csv:3: t_us: ") {
		t.Fatalf("err %v, want a.csv:3: t_us: ...", err)
	}
}

// FuzzReadCSV feeds each input to both readers: neither may panic, and
// a file either accepts must read back to the same rows once written.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte(sampleWindows))
	f.Add([]byte(sampleAlerts))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, err := ReadWindowsCSV(bytes.NewReader(data), "w.csv"); err == nil {
			var buf bytes.Buffer
			if err := (&Monitor{rows: rows}).WriteWindowsCSV(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadWindowsCSV(&buf, "w.csv")
			if err != nil || !slices.Equal(back, rows) {
				t.Fatalf("windows Read→Write→Read: %v\n%+v\n%+v\n%s", err, rows, back, buf.Bytes())
			}
		}
		if events, err := ReadAlertsCSV(bytes.NewReader(data), "a.csv"); err == nil {
			var buf bytes.Buffer
			if err := (&Monitor{alerts: events}).WriteAlertsCSV(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadAlertsCSV(&buf, "a.csv")
			if err != nil || !slices.Equal(back, events) {
				t.Fatalf("alerts Read→Write→Read: %v\n%+v\n%+v\n%s", err, events, back, buf.Bytes())
			}
		}
	})
}
