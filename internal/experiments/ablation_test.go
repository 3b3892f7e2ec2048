package experiments

import "testing"

func TestAblationClientLock(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row := RunAblationClientLock(QuickScale)
	t.Log(row)
	// Removing the coarse lock must lift cached-read throughput (§6.3.2).
	if row.Ablated <= row.Baseline {
		t.Errorf("lock removal did not improve reads: %s", row)
	}
}

func TestAblationWakeupElision(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row := RunAblationWakeupElision(QuickScale)
	t.Log(row)
	// Disabling polling must cost many more context switches.
	if row.Ablated < 10*row.Baseline {
		t.Errorf("polling removal should multiply switches: %s", row)
	}
}

func TestAblationThreadPinning(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row := RunAblationThreadPinning(QuickScale)
	t.Log(row)
	if row.Baseline <= 0 || row.Ablated <= 0 {
		t.Fatalf("missing measurements: %s", row)
	}
}

func TestAblationUnionIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row := RunAblationUnionIntegration(Run{Scale: QuickScale})
	t.Log(row)
	// The FUSE crossing between union and client must cost startup time.
	if row.Ablated <= row.Baseline {
		t.Errorf("FUSE crossing should be slower than integration: %s", row)
	}
}

func TestAblationImagePull(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row := RunAblationImagePull(Run{Scale: QuickScale})
	t.Log(row)
	// The pull+expand alone should cost meaningful time compared to
	// starting directly from the shared filesystem.
	if row.Ablated <= 0 || row.Baseline <= 0 {
		t.Fatalf("missing measurements: %s", row)
	}
}

func TestAllAblationsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows := AllAblations(Run{Scale: QuickScale})
	if len(rows) != 5 {
		t.Fatalf("ablation count = %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Baseline <= 0 && r.Ablated <= 0 {
			t.Errorf("empty ablation %q", r.Name)
		}
		if seen[r.Name] {
			t.Errorf("duplicate ablation %q", r.Name)
		}
		seen[r.Name] = true
	}
}
