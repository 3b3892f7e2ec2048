package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/obs"
)

// WriteWindowsCSV writes the retained window rows as deterministic
// CSV. Durations are integer microseconds so files are byte-identical
// across runs of the same scenario and seed. Safe on nil (writes only
// the header).
func (m *Monitor) WriteWindowsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "index,start_us,end_us,tenant,ops,errors,bytes,p50_us,p99_us,p999_us,mean_us,queued,shed,top_aggressor,top_aggressor_wait_us"); err != nil {
		return err
	}
	for _, r := range m.Windows() {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d\n",
			r.Index, r.Start.Microseconds(), r.End.Microseconds(), obs.CSVField(r.Tenant),
			r.Ops, r.Errors, r.Bytes,
			r.P50.Microseconds(), r.P99.Microseconds(), r.P999.Microseconds(), r.Mean.Microseconds(),
			r.Queued, r.Shed,
			obs.CSVField(r.TopAggressor), r.TopAggressorWait.Microseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteAlertsCSV writes the alert ledger as deterministic CSV. Safe on
// nil (writes only the header).
func (m *Monitor) WriteAlertsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t_us,tenant,slo,state,fast_burn,slow_burn"); err != nil {
		return err
	}
	for _, e := range m.Alerts() {
		if _, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%.4f,%.4f\n",
			e.T.Microseconds(), obs.CSVField(e.Tenant), obs.CSVField(e.SLO), e.State,
			e.FastBurn, e.SlowBurn); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTotalsCSV writes the per-(tenant, op) running totals — the
// sum-of-windows side of the telemetry-consistency invariant. Safe on
// nil (writes only the header).
func (m *Monitor) WriteTotalsCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "tenant,op,ops,errors,bytes,lat_sum_us"); err != nil {
		return err
	}
	for _, t := range m.Totals() {
		if _, err := fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d\n",
			obs.CSVField(t.Tenant), obs.CSVField(t.Op), t.Ops, t.Errors, t.Bytes, t.LatSum.Microseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
