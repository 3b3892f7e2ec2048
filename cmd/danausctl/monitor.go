package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// runMonitorCmd pretty-prints the live-telemetry artifacts written by
// `danausbench -exp monitorsweep -out DIR`: the per-tenant
// windowed aggregates as a latency timeline with inline p99 bars, and
// the SLO burn-rate alert ledger as a fire/clear timeline. It returns
// the exit status: 2 for a bad command line, 1 for a file it cannot
// read or that is not in the format its flag names.
func runMonitorCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: danausctl monitor -windows FILE [-alerts FILE] [-tenant NAME]")
		fs.PrintDefaults()
	}
	o, err := parseMonitorFlags(fs, args)
	if err != nil {
		fmt.Fprintf(stderr, "monitor: %v\n", err)
		return 2
	}
	if o.windows == "" && o.alerts == "" {
		fs.Usage()
		return 2
	}
	if o.windows != "" {
		if err := renderWindows(stdout, o.windows, o.tenant); err != nil {
			fmt.Fprintf(stderr, "monitor: %v\n", err)
			return 1
		}
	}
	if o.alerts != "" {
		if err := renderAlerts(stdout, o.alerts); err != nil {
			fmt.Fprintf(stderr, "monitor: %v\n", err)
			return 1
		}
	}
	return 0
}

// monitorOptions is the parsed monitor command line.
type monitorOptions struct{ windows, alerts, tenant string }

// parseMonitorFlags defines the monitor flags on fs and parses args.
func parseMonitorFlags(fs *flag.FlagSet, args []string) (monitorOptions, error) {
	var o monitorOptions
	fs.StringVar(&o.windows, "windows", "", "windows CSV (…-windows.csv) to render")
	fs.StringVar(&o.alerts, "alerts", "", "alert ledger CSV (…-alerts.csv) to render")
	fs.StringVar(&o.tenant, "tenant", "", "restrict the window timeline to one tenant")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, noArgs(fs)
}

// readFile parses the file at path with read, which names path in its
// errors.
func readFile[T any](path string, read func(io.Reader, string) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f, path)
}

func renderWindows(w io.Writer, path, only string) error {
	all, err := readFile(path, telemetry.ReadWindowsCSV)
	if err != nil {
		return err
	}
	var rows []telemetry.WindowRow
	var maxP99 time.Duration
	for _, r := range all {
		if only != "" && r.Tenant != only {
			continue
		}
		rows = append(rows, r)
		maxP99 = max(maxP99, r.P99)
	}
	fmt.Fprintf(w, "windows: %s (%d row(s))\n", path, len(rows))
	if len(rows) == 0 {
		return nil
	}
	fmt.Fprintf(w, "  %-16s %-8s %6s %5s %9s %9s %6s %5s  %-22s %s\n",
		"window", "tenant", "ops", "err", "p50", "p99", "shed", "queue", "p99 bar", "interference")
	const barWidth = 20
	for _, r := range rows {
		bar := 0
		if maxP99 > 0 {
			bar = int(int64(barWidth) * int64(r.P99) / int64(maxP99))
		}
		interference := ""
		if r.TopAggressor != "" {
			interference = fmt.Sprintf("%s waits on %s %v", r.Tenant, r.TopAggressor, r.TopAggressorWait.Round(time.Microsecond))
		}
		fmt.Fprintf(w, "  [%5.1fs-%5.1fs] %-8s %6d %5d %9v %9v %6d %5d  %-22s %s\n",
			r.Start.Seconds(), r.End.Seconds(), r.Tenant, r.Ops, r.Errors,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.Shed, r.Queued,
			"["+strings.Repeat("#", bar)+strings.Repeat(".", barWidth-bar)+"]",
			interference)
	}
	return nil
}

func renderAlerts(w io.Writer, path string) error {
	events, err := readFile(path, telemetry.ReadAlertsCSV)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "alerts: %s (%d transition(s))\n", path, len(events))
	for _, e := range events {
		mark := "CLEAR "
		if e.State == telemetry.AlertFiring {
			mark = "FIRING"
		}
		fmt.Fprintf(w, "  %10v %s %s/%s fast=%.4f slow=%.4f\n",
			e.T.Round(time.Millisecond), mark, e.Tenant, e.SLO, e.FastBurn, e.SlowBurn)
	}
	return nil
}
