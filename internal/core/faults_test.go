package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// TestPoolFaultStatsCountsSharedMountsOnce drives a faulted pool whose
// second container is a scaleup clone sharing the first one's client
// (D, FP) or kernel mount (K). Pool.FaultStats must count the shared
// client or mount once, and so equal the tenant's fault aggregate the
// observability harvest reports.
func TestPoolFaultStatsCountsSharedMountsOnce(t *testing.T) {
	for _, cfg := range []Configuration{ConfigD, ConfigK, ConfigFP} {
		t.Run(cfg.String(), func(t *testing.T) {
			tb := NewTestbed(TestbedConfig{Cores: 2})
			rec := obs.New(obs.Config{Clock: tb.Eng.Now})
			tb.AttachObserver(rec)
			tb.Cluster.SetReplication(2)
			tb.Cluster.ProvisionDir("/containers/victim")
			// A small pool keeps the client caches well below the file
			// size, so reads go to the OSDs while the fault is armed.
			pool := tb.NewPool("victim", cpu.MaskRange(0, 2), 8<<20)
			victim, err := pool.NewContainer("victim", MountSpec{Config: cfg, UpperDir: "/containers/victim"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pool.NewContainer("victim-clone", MountSpec{
				Config: cfg, UpperDir: "/containers/victim",
				SharedClient: victim.Mount.Client, SharedKernelMount: victim.Mount.KernelMount,
			}); err != nil {
				t.Fatal(err)
			}

			const size, chunk = 32 << 20, 256 << 10
			tb.Eng.Go("app", func(p *sim.Proc) {
				defer tb.Stop()
				ctx := vfsapi.Ctx{P: p, T: victim.NewThread()}
				fs := victim.Mount.Default
				h, err := fs.Open(ctx, "/f", vfsapi.CREATE|vfsapi.RDWR)
				if err != nil {
					t.Error(err)
					return
				}
				for off := int64(0); off < size; off += chunk {
					h.Write(ctx, off, chunk)
				}
				h.Fsync(ctx)
				node, err := tb.Cluster.Tree().Lookup("/containers/victim/f")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tb.InstallFaults("osd-crash:@wal:0s-200ms", node.Ino, p.Now()); err != nil {
					t.Error(err)
					return
				}
				for off := int64(0); off < size; off += chunk {
					h.Read(ctx, off, chunk)
					h.Write(ctx, off, chunk)
				}
				h.Fsync(ctx)
				h.Close(ctx)
				p.Sleep(200 * time.Millisecond)
			})
			tb.Eng.Run()
			rec.Finalize()

			got := pool.FaultStats()
			if got == (metrics.FaultCounters{}) {
				t.Fatal("the OSD crash left no fault counters; the test exercises nothing")
			}
			if want := rec.Registry().Tenant("victim").Faults(); got != want {
				t.Fatalf("Pool.FaultStats = %+v, registry harvest = %+v", got, want)
			}
		})
	}
}

// TestInstallFaultsResolvesWAL covers the schedule helper shared by the
// fault sweep and the fuzzer: every "@wal" token names the OSD holding
// the file's first object, schedules without a token or with no entry
// install as given, and a bad entry fails with an error naming it.
func TestInstallFaultsResolvesWAL(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Cores: 2})
	if err := tb.Cluster.Provision("/wal", 1<<20); err != nil {
		t.Fatal(err)
	}
	node, err := tb.Cluster.Tree().Lookup("/wal")
	if err != nil {
		t.Fatal(err)
	}
	osd := tb.Cluster.PlacementOf(node.Ino, 0)

	plan, err := tb.InstallFaults("osd-crash:@wal:1ms-2ms; net-drop:@wal:3:1ms-2ms;osd-degrade:@wal:2x:3ms-4ms", node.Ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Windows) != 3 {
		t.Fatalf("want 3 windows, got %v", plan.Windows)
	}
	for _, w := range plan.Windows {
		if w.OSD != osd {
			t.Errorf("%v: @wal resolved to osd %d, want %d", w, w.OSD, osd)
		}
	}

	plan, err = tb.InstallFaults("mds-stall:1ms-2ms;net-spike:client:500us:1ms-2ms", node.Ino, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Windows) != 2 || plan.Windows[0].Kind != faults.MDSStall || plan.Windows[1].OSD != faults.ClientNIC {
		t.Fatalf("schedule without a token changed: %v", plan.Windows)
	}

	plan, err = tb.InstallFaults("", node.Ino, 0)
	if err != nil || !plan.Empty() {
		t.Fatalf("empty schedule: plan %v, err %v", plan.Windows, err)
	}

	for _, c := range []struct{ schedule, entry string }{
		{"osd-crash:@wal:1ms-2ms;bogus:1ms-2ms", "bogus:1ms-2ms"},
		{"osd-degrade:@wal:zz:1ms-2ms", fmt.Sprintf("osd-degrade:%d:zz:1ms-2ms", osd)},
	} {
		_, err := tb.InstallFaults(c.schedule, node.Ino, 0)
		if err == nil || !strings.Contains(err.Error(), c.entry) {
			t.Errorf("%q: error %v does not name the entry %q", c.schedule, err, c.entry)
		}
	}
}
