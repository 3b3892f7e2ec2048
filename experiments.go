package danaus

import (
	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// Experiment result rows (one type per figure of the paper).
type (
	// InterferenceRow is one bar of Fig 1/6a/6b.
	InterferenceRow = experiments.InterferenceRow
	// InterferenceCase selects a Fig 1/6a/6b bar.
	InterferenceCase = experiments.InterferenceCase
	// SysbenchRow is one group of Fig 6c.
	SysbenchRow = experiments.SysbenchRow
	// SysbenchCase selects a Fig 6c group.
	SysbenchCase = experiments.SysbenchCase
	// KVRow is one point of the Fig 7 curves.
	KVRow = experiments.KVRow
	// KVPhase selects put or get measurement.
	KVPhase = experiments.KVPhase
	// StartupRow is one point of Fig 8.
	StartupRow = experiments.StartupRow
	// ScaleoutRow is one point of Fig 9/10.
	ScaleoutRow = experiments.ScaleoutRow
	// FileIORow is one point of Fig 11.
	FileIORow = experiments.FileIORow
	// AblationRow compares a design choice against its removal.
	AblationRow = experiments.AblationRow
)

// KV measurement phases.
const (
	// PhasePut measures random inserts (Fig 7a/7c).
	PhasePut = experiments.PhasePut
	// PhaseGet measures random out-of-core lookups (Fig 7b/7d).
	PhaseGet = experiments.PhaseGet
)

// Op-trace record/replay (see TRACES.md).
type (
	// TraceCase selects one replay target of the trace sweep.
	TraceCase = experiments.TraceCase
	// TraceRow is the outcome of a recording or replay run, with its
	// op trace.
	TraceRow = experiments.TraceRow
)

var (
	// RecordTraceBaseline records the production-shaped op stream under D.
	RecordTraceBaseline = experiments.RecordTraceBaseline
	// ReplayTraceUnder replays a recorded trace against one configuration.
	ReplayTraceUnder = experiments.ReplayTraceUnder
	// RunTraceSweep records a baseline and replays it under every
	// TraceCase; the baseline row comes first.
	RunTraceSweep = experiments.RunTraceSweep
	// TraceCases returns the default replay targets (D identity, K, D+adm).
	TraceCases = experiments.TraceCases
)

// Experiment runners: each regenerates one figure of the paper's
// evaluation on a fresh deterministic testbed.
var (
	// RunInterference executes a Fig 1/6a/6b case.
	RunInterference = experiments.RunInterference
	// RunSysbench executes a Fig 6c case.
	RunSysbench = experiments.RunSysbench
	// RunKVScaleout executes a Fig 7a/7b point.
	RunKVScaleout = experiments.RunKVScaleout
	// RunKVScaleup executes a Fig 7c/7d point.
	RunKVScaleup = experiments.RunKVScaleup
	// RunStartupScaleup executes a Fig 8 point.
	RunStartupScaleup = experiments.RunStartupScaleup
	// RunSeqIOScaleout executes a Fig 9 point.
	RunSeqIOScaleout = experiments.RunSeqIOScaleout
	// RunFileserverScaleout executes a Fig 10 point.
	RunFileserverScaleout = experiments.RunFileserverScaleout
	// RunFileIOScaleup executes a Fig 11 point.
	RunFileIOScaleup = experiments.RunFileIOScaleup
	// AllAblations runs every design-choice ablation.
	AllAblations = experiments.AllAblations
)

// Workload generators of Table 2, usable against any mounted
// configuration.
type (
	// Fileserver is the Filebench fileserver personality.
	Fileserver = workloads.Fileserver
	// Webserver is the Filebench webserver personality.
	Webserver = workloads.Webserver
	// SeqIO is Singlestreamwrite/Singlestreamread.
	SeqIO = workloads.SeqIO
	// RandomIO is the Stress-ng noisy neighbour.
	RandomIO = workloads.RandomIO
	// Sysbench is the CPU benchmark.
	Sysbench = workloads.Sysbench
	// Startup is the Lighttpd-style container start sequence.
	Startup = workloads.Startup
	// FileAppend is the custom Fileappend benchmark.
	FileAppend = workloads.FileAppend
	// FileRead is the custom Fileread benchmark.
	FileRead = workloads.FileRead
	// WorkloadGroup tracks completion of spawned workload threads.
	WorkloadGroup = workloads.Group
	// WorkloadClock bounds a measurement window.
	WorkloadClock = workloads.Clock
	// WorkloadStats collects a workload's measurements.
	WorkloadStats = workloads.Stats
)

// NewWorkloadGroup creates a completion group on an engine.
var NewWorkloadGroup = workloads.NewGroup

// NewWorkloadStats creates an empty stats collector (required before
// running a workload that records measurements).
var NewWorkloadStats = workloads.NewStats

// The LSM key-value store (the RocksDB stand-in of §6.3.1).
type (
	// KVStore is an open store.
	KVStore = kvstore.DB
	// KVStoreConfig configures a store.
	KVStoreConfig = kvstore.Config
)

// OpenKVStore opens a store on any mounted filesystem.
var OpenKVStore = kvstore.Open

// ErrKVNotFound reports a missing key.
var ErrKVNotFound = kvstore.ErrNotFound

// Histogram records latency samples with percentile queries.
type Histogram = metrics.Histogram

// NewHistogram returns an empty latency histogram.
var NewHistogram = metrics.NewHistogram
