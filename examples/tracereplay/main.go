// Trace record/replay: run a production-shaped workload (Zipf user
// popularity, diurnal arrivals, SLO classes) over Danaus once, capture
// every VFS operation with its issue time into a trace, then replay the
// identical op stream against other client configurations. Because the
// replay reissues the recorded arrivals byte for byte, every latency
// delta between rows is attributable to the client stack rather than to
// workload noise. See TRACES.md for the trace format and the
// danausbench command-line workflow.
package main

import (
	"fmt"

	"repro"
)

func main() {
	fmt.Println("Op-trace record/replay (quick scale)")
	fmt.Println()

	rows := danaus.RunTraceSweep(danaus.Run{Scale: danaus.QuickScale})
	for _, row := range rows {
		fmt.Println(row)
	}

	base := rows[0].Trace
	if err := base.WriteFile("baseline.trace"); err != nil {
		fmt.Println("write baseline.trace:", err)
		return
	}
	fmt.Println()
	fmt.Printf("recorded %d ops -> baseline.trace (schedule hash %s)\n",
		len(base.Ops), base.ScheduleHash()[:12])

	fmt.Println()
	fmt.Println("Reading the rows:")
	fmt.Println("  - 'rec' is the recording run: per-tenant tail latency plus the")
	fmt.Println("    per-SLO-class violation ledger of the production workload.")
	fmt.Println("  - 'D' replays the trace under the recorded configuration; its")
	fmt.Println("    schedule must match the recording byte for byte (sched=match).")
	fmt.Println("  - 'K' and 'D+adm' replay the same arrivals under the kernel")
	fmt.Println("    client and under admission control; seq=match confirms no op")
	fmt.Println("    was reordered or rewritten, and the p99/p999 ratios and the")
	fmt.Println("    blame-bucket shift attribute any latency change to the stack.")
	fmt.Println()
	fmt.Println("Replay the saved trace from the command line with:")
	fmt.Println("  go run ./cmd/danausbench -replay baseline.trace -config K -record k.trace")
	fmt.Println("  go run ./cmd/danausbench -tracediff baseline.trace,k.trace")
}
