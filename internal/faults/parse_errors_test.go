package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// The parser must reject malformed schedules with a diagnostic naming
// the offending entry — never panic, never silently drop an entry.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"flood:1:1s-2s", "unknown fault kind"},
		{"osd-crash", "want 3 fields, got 1"}, // bare kind, no fields
		{"osd-crash:1:1s-2s:extra", "want 3 fields, got 4"},
		{"osd-degrade:1:1s-2s", "want 4 fields, got 3"},
		{"net-spike:client:1ms", "want 4 fields, got 3"},
		{"mds-stall", "want 2 fields, got 1"},
		{"osd-crash:-2:1s-2s", "bad osd index"},
		{"osd-degrade:1:2x:1s-2s:x", "want 4 fields, got 5"},
		{"osd-degrade:1:zzz:1s-2s", "bad degrade factor"},
		{"osd-degrade:1:NaNx:1s-2s", "bad degrade factor"}, // NaN passes every comparison
		{"osd-degrade:1:+Infx:1s-2s", "bad degrade factor"},
		{"net-spike:1:never:1s-2s", "bad latency"},
		{"osd-degrade:0:1e300x:4.2ms-14.4ms", "bad degrade factor"}, // wrapped the media time negative
		{"osd-degrade:0:1000001x:4.2ms-14.4ms", "bad degrade factor"},
		{"net-spike:0:9223372036s:4.2ms-14.4ms", "bad latency"}, // ran without end
		{"net-spike:0:-50us:0ms-50ms", "bad latency"},           // ran as no fault
		{"net-spike:client:1m0.000000001s:1s-2s", "bad latency"},
		{"net-drop:1:0x7:1s-2s", "bad drop period"},
		{"osd-crash:1:1s2s", "bad window, want start-end"},
		{"osd-crash:1:soon-2s", "bad window start"},
		{"osd-crash:1:1s-later", "bad window end"},
		{"osd-crash:1:1s-2s;flood:0:1s-2s", "unknown fault kind"},
		{"danaus-crash:1s-2s", "want 3 fields, got 2"}, // tenant missing entirely
		{"danaus-crash::1s-2s", "bad tenant id"},       // empty tenant
		{"danaus-crash:a b:1s-2s", "bad tenant id"},    // space in tenant
		{"fuse-crash:fls-0:1s-2s", "bad tenant id"},    // '-' would corrupt String round trips
		{"fuse-crash:fls0:1s-2s:extra", "want 3 fields, got 4"},
		{"host-crash:fls0:1s-2s", "want 2 fields, got 3"}, // host crash takes no tenant
		{"host-crash:1s2s", "bad window, want start-end"},
		{"danaus-crash:fls0:soon-2s", "bad window start"},
		{"fuse-crash:fls0:1s-later", "bad window end"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted a bad schedule", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.spec, err, c.want)
		}
		if !strings.Contains(err.Error(), "bad entry") {
			t.Errorf("Parse(%q) error %q does not name the offending entry", c.spec, err)
		}
	}
}

// hostileSchedules are schedules Parse once accepted though they ran
// wrongly: a degrade factor whose media time wrapped negative, a spike
// latency that kept a run going without end and a negative one that
// ran as no fault.
var hostileSchedules = []string{
	"osd-degrade:0:1e300x:4.2ms-14.4ms",
	"net-spike:0:9223372036s:4.2ms-14.4ms",
	"net-spike:0:-50us:0ms-50ms",
}

// The stated maxima themselves, and a zero latency, are accepted.
func TestParseBounds(t *testing.T) {
	for _, s := range []string{
		"osd-degrade:0:1e6x:1s-2s", "osd-degrade:0:1x:1s-2s",
		"net-spike:client:1m0s:1s-2s", "net-spike:0:0s:1s-2s",
	} {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
	}
}

// FuzzParse checks that Parse never panics, and that a plan it accepts
// round-trips Parse→String→Parse to an equal plan. The hostile
// schedules and one entry of each kind are the seed corpus.
func FuzzParse(f *testing.F) {
	for _, s := range hostileSchedules {
		f.Add(s)
	}
	f.Add("osd-crash:1:1s-2s;osd-degrade:@wal:2x:3ms-4ms;net-spike:client:1ms:4.2ms-14.4ms;net-drop:0:3:1ms-2ms")
	f.Add("net-partition:2:1s-2s; mds-stall:1ms-2ms;danaus-crash:fls0:1s-2s;fuse-crash:fls1:1s-2s;host-crash:1s-2s")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("%q: its plan %q does not parse: %v", s, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("%q: plan %+v parses back as %+v", s, p, again)
		}
	})
}

// Empty schedules and surrounding whitespace are fine; a good entry
// after a bad one must not mask the error.
func TestParseEdges(t *testing.T) {
	for _, s := range []string{"", "  ", ";", " ; "} {
		p, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
		if len(p.Windows) != 0 {
			t.Errorf("Parse(%q) produced %d windows", s, len(p.Windows))
		}
	}
	if _, err := Parse("flood:1:1s-2s;osd-crash:1:1s-2s"); err == nil {
		t.Error("bad first entry masked by a good second one")
	}
}

// Crash windows carry their restart inside the window (crash at Start,
// restart at End): a restart scheduled before the crash, a tenant-less
// tenant crash, and overlapping outages of the same target must all be
// rejected before installation.
func TestValidateRejectsBadCrashWindows(t *testing.T) {
	mk := func(ws ...Window) Plan { return Plan{Windows: ws} }
	for name, p := range map[string]Plan{
		"restart before crash": mk(Window{Kind: DanausCrash, Tenant: "fls0", Start: 2 * time.Second, End: time.Second}),
		"restart at crash":     mk(Window{Kind: FUSECrash, Tenant: "fls0", Start: time.Second, End: time.Second}),
		"missing tenant":       mk(Window{Kind: DanausCrash, Start: 0, End: time.Second}),
		"host restart early":   mk(Window{Kind: HostCrash, Start: time.Second, End: time.Millisecond}),
		"overlapping outages": mk(
			Window{Kind: DanausCrash, Tenant: "fls0", Start: 0, End: time.Second},
			Window{Kind: DanausCrash, Tenant: "fls0", Start: 500 * time.Millisecond, End: 2 * time.Second},
		),
	} {
		if err := p.Validate(6); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same outage on two different tenants may overlap.
	ok := mk(
		Window{Kind: DanausCrash, Tenant: "fls0", Start: 0, End: time.Second},
		Window{Kind: DanausCrash, Tenant: "fls1", Start: 0, End: time.Second},
	)
	if err := ok.Validate(6); err != nil {
		t.Fatalf("distinct-tenant overlap rejected: %v", err)
	}
}

// Out-of-order window times parse (the syntax is valid) but must be
// rejected by Validate before installation — the injector would
// otherwise arm a window that never disarms.
func TestValidateRejectsOutOfOrderWindow(t *testing.T) {
	p, err := Parse("osd-crash:1:2s-1s")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := p.Validate(6); err == nil {
		t.Fatal("Validate accepted a window ending before it starts")
	}
	// Same shape straight through the struct, for non-parsed plans.
	bad := Plan{Windows: []Window{{Kind: MDSStall, Start: 2 * time.Second, End: time.Second}}}
	if err := bad.Validate(6); err == nil {
		t.Fatal("Validate accepted End < Start")
	}
}
