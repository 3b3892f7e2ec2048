package core

import (
	"fmt"
	"strings"
)

// Configuration names the client system compositions of Table 1.
type Configuration int

// The eight configurations compared in the paper's evaluation.
const (
	// ConfigD: Danaus — optional union libservice over the Danaus
	// client libservice with the user-level client cache, reached over
	// shared-memory IPC (legacy path over FUSE).
	ConfigD Configuration = iota
	// ConfigK: kernel CephFS client with the page cache.
	ConfigK
	// ConfigF: ceph-fuse with direct I/O — user-level client cache only.
	ConfigF
	// ConfigFP: ceph-fuse with the page cache stacked on top (double
	// caching).
	ConfigFP
	// ConfigKK: AUFS over kernel CephFS, page cache for both.
	ConfigKK
	// ConfigFK: unionfs-fuse (direct I/O) over kernel CephFS.
	ConfigFK
	// ConfigFF: unionfs-fuse over ceph-fuse, both direct I/O — the
	// least memory, the most context switches.
	ConfigFF
	// ConfigFPFP: unionfs-fuse over ceph-fuse with the page cache used
	// by both layers.
	ConfigFPFP
)

// String returns the paper's symbol for the configuration.
func (c Configuration) String() string {
	switch c {
	case ConfigD:
		return "D"
	case ConfigK:
		return "K"
	case ConfigF:
		return "F"
	case ConfigFP:
		return "FP"
	case ConfigKK:
		return "K/K"
	case ConfigFK:
		return "F/K"
	case ConfigFF:
		return "F/F"
	case ConfigFPFP:
		return "FP/FP"
	default:
		return "?"
	}
}

// UserLevelClient reports whether the backend client runs at user level
// (Danaus or ceph-fuse).
func (c Configuration) UserLevelClient() bool {
	switch c {
	case ConfigD, ConfigF, ConfigFP, ConfigFF, ConfigFPFP:
		return true
	}
	return false
}

// HasUnion reports whether the configuration stacks a union filesystem.
func (c Configuration) HasUnion() bool {
	switch c {
	case ConfigKK, ConfigFK, ConfigFF, ConfigFPFP:
		return true
	}
	return false
}

// AllConfigurations lists Table 1 in presentation order.
func AllConfigurations() []Configuration {
	return []Configuration{ConfigD, ConfigK, ConfigF, ConfigFP, ConfigKK, ConfigFK, ConfigFF, ConfigFPFP}
}

// ParseConfiguration resolves a Table 1 symbol ("D", "K", "F/K", ...),
// ignoring case. The error lists the symbols.
func ParseConfiguration(s string) (Configuration, error) {
	names := make([]string, 0, 8)
	for _, c := range AllConfigurations() {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
		names = append(names, c.String())
	}
	return 0, fmt.Errorf("unknown configuration %q (want one of %s)", s, strings.Join(names, " "))
}
