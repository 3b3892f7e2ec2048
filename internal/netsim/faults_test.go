package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

// Zero-byte transfers model control messages: they must pay the link
// latency only, never be rounded up to a data byte, and count as one
// message.
func TestZeroByteTransferLatencyOnly(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, time.Millisecond, 64<<10)
	var done time.Duration
	var err error
	e.Go("tx", func(p *sim.Proc) {
		err = l.Transfer(p, 0)
		done = p.Now()
	})
	e.Run()
	if err != nil {
		t.Fatalf("zero-byte transfer: %v", err)
	}
	if done != time.Millisecond {
		t.Fatalf("zero-byte transfer took %v, want the 1ms latency only", done)
	}
	if l.Bytes() != 0 {
		t.Fatalf("zero-byte transfer counted %d bytes, want 0", l.Bytes())
	}
	if l.Messages() != 1 {
		t.Fatalf("messages = %d, want 1", l.Messages())
	}
}

func TestNegativeTransferClampedToZero(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, time.Millisecond, 64<<10)
	var done time.Duration
	e.Go("tx", func(p *sim.Proc) {
		if err := l.Transfer(p, -7); err != nil {
			t.Errorf("negative transfer: %v", err)
		}
		done = p.Now()
	})
	e.Run()
	if done != time.Millisecond || l.Bytes() != 0 {
		t.Fatalf("negative transfer: done=%v bytes=%d, want 1ms and 0", done, l.Bytes())
	}
}

func TestLinkExtraLatency(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, time.Millisecond, 64<<10)
	l.SetExtraLatency(2 * time.Millisecond)
	var spiked, restored time.Duration
	e.Go("tx", func(p *sim.Proc) {
		l.Transfer(p, 0)
		spiked = p.Now()
		l.SetExtraLatency(0)
		start := p.Now()
		l.Transfer(p, 0)
		restored = p.Now() - start
	})
	e.Run()
	if spiked != 3*time.Millisecond {
		t.Fatalf("spiked transfer took %v, want 3ms", spiked)
	}
	if restored != time.Millisecond {
		t.Fatalf("restored transfer took %v, want 1ms", restored)
	}
}

func TestLinkPartition(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, time.Millisecond, 64<<10)
	l.SetPartitioned(true)
	var errPart, errHealed error
	var partDone time.Duration
	e.Go("tx", func(p *sim.Proc) {
		errPart = l.Transfer(p, 4096)
		partDone = p.Now()
		l.SetPartitioned(false)
		errHealed = l.Transfer(p, 4096)
	})
	e.Run()
	if !errors.Is(errPart, ErrPartitioned) {
		t.Fatalf("partitioned transfer: err=%v, want ErrPartitioned", errPart)
	}
	if partDone != time.Millisecond {
		t.Fatalf("partitioned attempt took %v, want the latency (timeout) only", partDone)
	}
	if l.Bytes() != 4096 {
		t.Fatalf("bytes=%d: the partitioned attempt must not count traffic", l.Bytes())
	}
	if errHealed != nil {
		t.Fatalf("healed transfer: %v", errHealed)
	}
}

func TestLinkDropEvery(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, 0, 64<<10)
	l.SetDropEvery(3)
	var errs []bool
	e.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			errs = append(errs, errors.Is(l.Transfer(p, 64), ErrDropped))
		}
		// Re-arming resets the counter so a later window drops at the
		// same deterministic offsets.
		l.SetDropEvery(3)
		for i := 0; i < 3; i++ {
			errs = append(errs, errors.Is(l.Transfer(p, 64), ErrDropped))
		}
	})
	e.Run()
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("drop pattern %v, want %v", errs, want)
		}
	}
}

// A latency spike arming while a transfer is mid-propagation must not
// inflate the reported wait: the wait observer must see exactly the
// time the sender was blocked, or blame decomposition over-explains
// the span and the "other" residual goes negative (found by the fuzz
// sweep's blame-sum invariant).
func TestSpikeArmedMidTransferReportsActualWait(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, time.Millisecond, 64<<10)
	var reported, actual time.Duration
	e.SetWaitObserver(func(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
		if kind == "net" {
			reported += dur
		}
	})
	e.Go("tx", func(p *sim.Proc) {
		start := p.Now()
		l.Transfer(p, 0)
		actual = p.Now() - start
	})
	e.Go("spike", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		l.SetExtraLatency(5 * time.Millisecond)
	})
	e.Run()
	if actual != time.Millisecond {
		t.Fatalf("transfer blocked %v, want the pre-spike 1ms latency", actual)
	}
	if reported != actual {
		t.Fatalf("observer saw %v of net wait for %v of blocking", reported, actual)
	}
}
