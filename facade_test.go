package danaus_test

import (
	"testing"

	danaus "repro"
)

// TestFacadeSurface exercises the re-exported public API end to end:
// a workload, an experiment runner and the KV store, reached only
// through the facade (as an external consumer would).
func TestFacadeSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Experiment runner through the facade.
	row := danaus.RunSysbench(danaus.SysbenchCase{Config: danaus.D, WithSSB: true}, danaus.Run{Scale: danaus.QuickScale})
	if row.SSBLatencyP99 <= 0 {
		t.Fatalf("no SSB latency through facade: %+v", row)
	}

	// Workload + KV store through the facade.
	tb := danaus.NewTestbed(danaus.TestbedConfig{Cores: 4})
	tb.Cluster.ProvisionDir("/containers/c0")
	pool := tb.NewPool("t", danaus.CoreMask(0, 1), 8<<30)
	c, err := pool.NewContainer("c0", danaus.MountSpec{Config: danaus.D, UpperDir: "/containers/c0"})
	if err != nil {
		t.Fatal(err)
	}
	tb.Eng.Go("driver", func(p *danaus.Proc) {
		defer tb.Stop()
		ctx := danaus.Ctx{P: p, T: c.NewThread()}
		db, err := danaus.OpenKVStore(ctx, danaus.KVStoreConfig{
			FS: c.Mount.Default, Dir: "/db", MemtableBytes: 4 << 20,
			Eng: tb.Eng, NewThread: c.NewThread,
		})
		if err != nil {
			t.Errorf("open kv: %v", err)
			return
		}
		db.Put(ctx, 1, 128<<10)
		if size, err := db.Get(ctx, 1); err != nil || size != 128<<10 {
			t.Errorf("kv get: %d %v", size, err)
		}
		db.Close(ctx)

		// A facade-constructed workload runs end to end.
		w := &danaus.FileAppend{FS: c.Mount.Default, Path: "/blob", NewThread: c.NewThread, Stats: danaus.NewWorkloadStats()}
		hb, _ := c.Mount.Default.Open(ctx, "/blob", danaus.Create|danaus.WriteOnly)
		hb.Write(ctx, 0, 1<<20)
		hb.Close(ctx)
		g := danaus.NewWorkloadGroup(tb.Eng)
		w.Run(g, danaus.WorkloadClock{Eng: tb.Eng})
		g.Wait(p)
		if w.Stats.Ops.Ops != 1 {
			t.Errorf("facade workload recorded %d ops", w.Stats.Ops.Ops)
		}
	})
	tb.Eng.Run()
}
