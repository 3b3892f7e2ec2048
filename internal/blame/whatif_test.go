package blame

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// hostileWhatIfs are specs ParseWhatIf once accepted although Apply on
// the default model turned them into a negative NIC bandwidth, a
// negative lock hold, a zero OSD bandwidth or a NaN scale. Each entry
// is the spec and the knob its error must name.
var hostileWhatIfs = [][2]string{
	{"nic=+Infx", "nic"},
	{"lockcs=NaN", "lockcs"},
	{"lockcs=Inf", "lockcs"},
	{"osd=1e-300x", "osd"},
	{"nic=NaNx", "nic"},
}

// TestParseWhatIfRejectsUnrepresentable: a scale that is not finite,
// or whose applied rate or hold is not a positive int64, is rejected
// naming its knob; lockcs=0 stays allowed.
func TestParseWhatIfRejectsUnrepresentable(t *testing.T) {
	for _, c := range append(hostileWhatIfs, [][2]string{
		{"nic=1e300x", "nic"},
		{"osd=4.3x", ""},
		{"lockcs=1e-4", "lockcs"},
		{"lockcs=1e20", "lockcs"},
		{"lockcs=0", ""},
		{"nic=2x,lockcs=0.01", ""},
	}...) {
		_, err := ParseWhatIf(c[0])
		switch {
		case c[1] == "" && err != nil:
			t.Errorf("ParseWhatIf(%q): %v, want it accepted", c[0], err)
		case c[1] != "" && (err == nil || !strings.HasPrefix(err.Error(), "what-if: "+c[1]+":")):
			t.Errorf("ParseWhatIf(%q): %v, want an error naming %s", c[0], err, c[1])
		}
	}
}

// FuzzParseWhatIf checks that ParseWhatIf never panics, and that a spec
// it accepts, applied to the default model, leaves every rate it
// scales positive and every hold positive, or 0 under lockcs=0.
func FuzzParseWhatIf(f *testing.F) {
	for _, c := range hostileWhatIfs {
		f.Add(c[0])
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := ParseWhatIf(spec)
		if err != nil {
			return
		}
		base, p := model.Default(), model.Default()
		w.Apply(p)
		for _, r := range []int64{p.ClientNICBytesPerSec, p.ServerNICBytesPerSec, p.OSDRamdiskBytesPerSec} {
			if r <= 0 {
				t.Fatalf("%q: a rate of %d B/s", spec, r)
			}
		}
		for _, h := range []int64{int64(p.LRULockHoldPerPage), int64(p.IMutexHold),
			int64(p.WritebackLockHold), int64(p.ClientLockHold)} {
			if h < 0 || h == 0 && w.LockCSScale != 0 {
				t.Fatalf("%q: a hold of %dns", spec, h)
			}
		}
		if w.NICScale >= 1 && p.ClientNICBytesPerSec < base.ClientNICBytesPerSec ||
			w.OSDScale >= 1 && p.OSDRamdiskBytesPerSec < base.OSDRamdiskBytesPerSec {
			t.Fatalf("%q: a speedup slowed a rate down: %+v", spec, w)
		}
	})
}
