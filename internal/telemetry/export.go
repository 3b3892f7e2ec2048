package telemetry

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// The header lines of the windows and alert-ledger CSVs. The writers
// emit them and the readers accept no other.
const (
	windowsHeader = "index,start_us,end_us,tenant,ops,errors,bytes,p50_us,p99_us,p999_us,mean_us,queued,shed,top_aggressor,top_aggressor_wait_us"
	alertsHeader  = "t_us,tenant,slo,state,fast_burn,slow_burn"
)

// WriteWindowsCSV writes the retained window rows as deterministic
// CSV. Durations are integer microseconds so files are byte-identical
// across runs of the same scenario and seed. Safe on nil (writes only
// the header). Like the other writers it checks for a write error once,
// at the flush: a bufio.Writer keeps its first error.
func (m *Monitor) WriteWindowsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, windowsHeader)
	for _, r := range m.Windows() {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d\n",
			r.Index, r.Start.Microseconds(), r.End.Microseconds(), obs.CSVField(r.Tenant),
			r.Ops, r.Errors, r.Bytes,
			r.P50.Microseconds(), r.P99.Microseconds(), r.P999.Microseconds(), r.Mean.Microseconds(),
			r.Queued, r.Shed,
			obs.CSVField(r.TopAggressor), r.TopAggressorWait.Microseconds())
	}
	return bw.Flush()
}

// WriteAlertsCSV writes the alert ledger as deterministic CSV. Safe on
// nil (writes only the header).
func (m *Monitor) WriteAlertsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, alertsHeader)
	for _, e := range m.Alerts() {
		fmt.Fprintf(bw, "%d,%s,%s,%s,%.4f,%.4f\n",
			e.T.Microseconds(), obs.CSVField(e.Tenant), obs.CSVField(e.SLO), e.State,
			e.FastBurn, e.SlowBurn)
	}
	return bw.Flush()
}

// WriteTotalsCSV writes the per-(tenant, op) running totals — the
// sum-of-windows side of the telemetry-consistency invariant. Safe on
// nil (writes only the header).
func (m *Monitor) WriteTotalsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "tenant,op,ops,errors,bytes,lat_sum_us")
	for _, t := range m.Totals() {
		fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d\n",
			obs.CSVField(t.Tenant), obs.CSVField(t.Op), t.Ops, t.Errors, t.Bytes, t.LatSum.Microseconds())
	}
	return bw.Flush()
}

// ReadWindowsCSV parses a windows CSV as WriteWindowsCSV writes it, at
// microsecond resolution. A header other than the writer's, a row with
// the wrong field count, a field that is not a number and a duration
// past time.Duration's range are errors starting with "name:LINE:" and
// naming the field.
func ReadWindowsCSV(r io.Reader, name string) (rows []WindowRow, err error) {
	err = readCSV(r, name, windowsHeader, func(f *csvRow) {
		rows = append(rows, WindowRow{Index: f.int(), Start: f.us(), End: f.us(), Tenant: f.str(),
			Ops: f.uint(), Errors: f.uint(), Bytes: f.int(), P50: f.us(), P99: f.us(), P999: f.us(), Mean: f.us(),
			Queued: int(f.int()), Shed: f.uint(), TopAggressor: f.str(), TopAggressorWait: f.us()})
	})
	return rows, err
}

// ReadAlertsCSV parses an alert ledger as WriteAlertsCSV writes it,
// rejecting what ReadWindowsCSV rejects, a state other than "firing"
// or "clear" and a burn rate that is not a finite number with four
// decimals.
func ReadAlertsCSV(r io.Reader, name string) (events []AlertEvent, err error) {
	err = readCSV(r, name, alertsHeader, func(f *csvRow) {
		events = append(events, AlertEvent{T: f.us(), Tenant: f.str(), SLO: f.str(),
			State: field(f, parseState), FastBurn: f.burn(), SlowBurn: f.burn()})
	})
	return events, err
}

// readCSV checks that r starts with header and hands each further
// record to row, which reads its fields in header order.
func readCSV(r io.Reader, name, header string, row func(*csvRow)) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	f := &csvRow{names: strings.Split(header, ",")}
	for n := 0; ; n++ {
		rec, err := cr.Read()
		switch {
		case err == io.EOF && n == 0:
			return fmt.Errorf("%s:1: empty file, want header %q", name, header)
		case err == io.EOF:
			return nil
		case err != nil:
			return fmt.Errorf("%s: %v", name, err)
		}
		f.rec, f.i = rec, 0
		switch {
		case n == 0 && strings.Join(rec, ",") != header:
			f.err = fmt.Errorf("header %q, want %q", strings.Join(rec, ","), header)
		case n > 0 && len(rec) != len(f.names):
			f.err = fmt.Errorf("%d field(s), want %d", len(rec), len(f.names))
		case n > 0:
			row(f)
		}
		if f.err != nil {
			line, _ := cr.FieldPos(0)
			return fmt.Errorf("%s:%d: %v", name, line, f.err)
		}
	}
}

// csvRow hands out one record's fields in header order, keeping the
// first parse error.
type csvRow struct {
	names, rec []string
	i          int
	err        error
}

// field parses the record's next field with parse.
func field[T any](f *csvRow, parse func(string) (T, error)) T {
	v, err := parse(f.rec[f.i])
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("%s: bad value %q", f.names[f.i], f.rec[f.i])
	}
	f.i++
	return v
}

func (f *csvRow) str() string { return field(f, func(s string) (string, error) { return s, nil }) }
func (f *csvRow) int() int64 {
	return field(f, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
}
func (f *csvRow) uint() uint64 {
	return field(f, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
}

// burn reads a burn rate as WriteAlertsCSV writes it: finite, with four
// decimals.
func (f *csvRow) burn() float64 {
	return field(f, func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || strconv.FormatFloat(v, 'f', 4, 64) != s) {
			err = strconv.ErrSyntax
		}
		return v, err
	})
}

// us reads a duration in integer microseconds, rejecting one that
// overflows time.Duration.
func (f *csvRow) us() time.Duration {
	return field(f, func(s string) (time.Duration, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if v > math.MaxInt64/int64(time.Microsecond) || v < math.MinInt64/int64(time.Microsecond) {
			err = strconv.ErrRange
		}
		return time.Duration(v) * time.Microsecond, err
	})
}

// parseState reads an alert state as AlertState.String writes it.
func parseState(s string) (AlertState, error) {
	switch s {
	case AlertFiring.String():
		return AlertFiring, nil
	case AlertClear.String():
		return AlertClear, nil
	}
	return AlertClear, strconv.ErrSyntax
}
