// Webfarm startup scaleup: starts a growing fleet of cloned webserver
// containers from a shared image (the paper's Fig 8 scenario) under
// three configurations, printing the real startup time and the context
// switches each transport generated.
//
// The startup traffic is dominated by kernel-initiated I/O (exec of the
// binary, mmap of the dynamic libraries), so Danaus takes its legacy
// FUSE path and the mature kernel union (K/K) wins — while the doubly
// stacked FUSE daemons of F/F pay an order of magnitude more context
// switches than Danaus.
package main

import (
	"fmt"

	"repro"
)

func main() {
	fmt.Println("Cloned webserver container startup (quick scale)")
	fmt.Println()
	fmt.Printf("%-6s %10s %16s %16s\n", "config", "clones", "real time", "context switches")
	for _, cfg := range []danaus.Configuration{danaus.KK, danaus.D, danaus.FF} {
		for _, n := range []int{1, 8, 32} {
			row := danaus.RunStartupScaleup(cfg, n, danaus.Run{Scale: danaus.QuickScale})
			fmt.Printf("%-6s %10d %16v %16d\n", row.Config, row.Containers, row.RealTime, row.ContextSwitches)
		}
		fmt.Println()
	}
	fmt.Println("The kernel union (K/K) serves the exec/mmap reads natively and")
	fmt.Println("starts containers fastest; Danaus (D) pays the FUSE legacy path")
	fmt.Println("for kernel-initiated I/O but still crosses far fewer context")
	fmt.Println("switches than unionfs-fuse stacked over ceph-fuse (F/F).")
}
