package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// runMonitorCmd pretty-prints the live-telemetry artifacts written by
// `danausbench -exp monitorsweep -out DIR`: the per-tenant
// windowed aggregates as a latency timeline with inline p99 bars, and
// the SLO burn-rate alert ledger as a fire/clear timeline.
func runMonitorCmd(args []string) {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	windowsPath := fs.String("windows", "", "windows CSV (…-windows.csv) to render")
	alertsPath := fs.String("alerts", "", "alert ledger CSV (…-alerts.csv) to render")
	tenant := fs.String("tenant", "", "restrict the window timeline to one tenant")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: danausctl monitor -windows FILE [-alerts FILE] [-tenant NAME]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *windowsPath == "" && *alertsPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	if *windowsPath != "" {
		if err := renderWindows(*windowsPath, *tenant); err != nil {
			fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
			os.Exit(1)
		}
	}
	if *alertsPath != "" {
		if err := renderAlerts(*alertsPath); err != nil {
			fmt.Fprintf(os.Stderr, "monitor: %v\n", err)
			os.Exit(1)
		}
	}
}

// monWindow is one parsed windows-CSV row.
type monWindow struct {
	start, end       time.Duration
	tenant           string
	ops, errors      uint64
	p50, p99, mean   time.Duration
	queued           int
	shed             uint64
	topAggressor     string
	topAggressorWait time.Duration
}

func readCSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	return recs[1:], nil // drop header
}

func usDur(field string) time.Duration {
	n, _ := strconv.ParseInt(field, 10, 64)
	return time.Duration(n) * time.Microsecond
}

func uintField(field string) uint64 {
	n, _ := strconv.ParseUint(field, 10, 64)
	return n
}

func renderWindows(path, only string) error {
	recs, err := readCSV(path)
	if err != nil {
		return err
	}
	var rows []monWindow
	var maxP99 time.Duration
	for _, f := range recs {
		if len(f) < 15 {
			continue
		}
		w := monWindow{
			start: usDur(f[1]), end: usDur(f[2]), tenant: f[3],
			ops: uintField(f[4]), errors: uintField(f[5]),
			p50: usDur(f[7]), p99: usDur(f[8]), mean: usDur(f[10]),
			queued: int(uintField(f[11])), shed: uintField(f[12]),
			topAggressor: f[13], topAggressorWait: usDur(f[14]),
		}
		if only != "" && w.tenant != only {
			continue
		}
		rows = append(rows, w)
		if w.p99 > maxP99 {
			maxP99 = w.p99
		}
	}
	fmt.Printf("windows: %s (%d row(s))\n", path, len(rows))
	if len(rows) == 0 {
		return nil
	}
	fmt.Printf("  %-16s %-8s %6s %5s %9s %9s %6s %5s  %-22s %s\n",
		"window", "tenant", "ops", "err", "p50", "p99", "shed", "queue", "p99 bar", "interference")
	const barWidth = 20
	for _, w := range rows {
		bar := 0
		if maxP99 > 0 {
			bar = int(int64(barWidth) * int64(w.p99) / int64(maxP99))
		}
		interference := ""
		if w.topAggressor != "" {
			interference = fmt.Sprintf("%s waits on %s %v", w.tenant, w.topAggressor, w.topAggressorWait.Round(time.Microsecond))
		}
		fmt.Printf("  [%5.1fs-%5.1fs] %-8s %6d %5d %9v %9v %6d %5d  %-22s %s\n",
			w.start.Seconds(), w.end.Seconds(), w.tenant, w.ops, w.errors,
			w.p50.Round(time.Microsecond), w.p99.Round(time.Microsecond),
			w.shed, w.queued,
			"["+strings.Repeat("#", bar)+strings.Repeat(".", barWidth-bar)+"]",
			interference)
	}
	return nil
}

func renderAlerts(path string) error {
	recs, err := readCSV(path)
	if err != nil {
		return err
	}
	fmt.Printf("alerts: %s (%d transition(s))\n", path, len(recs))
	for _, f := range recs {
		if len(f) < 6 {
			continue
		}
		mark := "CLEAR "
		if f[3] == "firing" {
			mark = "FIRING"
		}
		fmt.Printf("  %10v %s %s/%s fast=%s slow=%s\n",
			usDur(f[0]).Round(time.Millisecond), mark, f[1], f[2], f[4], f[5])
	}
	return nil
}
