package cpu

import "time"

// TimeKind classifies where simulated CPU time is spent, mirroring the
// user/system/iowait split the paper reports.
type TimeKind int

const (
	// User is application- or libservice-level computation.
	User TimeKind = iota
	// Kernel is time executing inside the simulated host kernel.
	Kernel
	// numKinds sizes per-kind arrays.
	numKinds
)

// Account accumulates resource consumption for a container pool (or
// the host kernel itself). It is the unit of attribution for the
// paper's cpu-activity, context-switch and I/O-wait comparisons.
type Account struct {
	Name string

	timeByKind [numKinds]time.Duration
	ioWait     time.Duration

	modeSwitches    uint64
	contextSwitches uint64
}

// NewAccount creates a named account.
func NewAccount(name string) *Account { return &Account{Name: name} }

// CPUTime returns total simulated CPU consumed (user + kernel).
func (a *Account) CPUTime() time.Duration {
	return a.timeByKind[User] + a.timeByKind[Kernel]
}

// Time returns CPU time of one kind.
func (a *Account) Time(k TimeKind) time.Duration { return a.timeByKind[k] }

// IOWait returns accumulated time threads of this account spent blocked
// inside kernel I/O paths (dirty throttling, I/O completion waits).
func (a *Account) IOWait() time.Duration { return a.ioWait }

// AddIOWait records blocked-on-I/O time.
func (a *Account) AddIOWait(d time.Duration) { a.ioWait += d }

// ModeSwitches returns the number of user/kernel crossings charged.
func (a *Account) ModeSwitches() uint64 { return a.modeSwitches }

// ContextSwitches returns the number of thread switches charged.
func (a *Account) ContextSwitches() uint64 { return a.contextSwitches }

// count bumps the counter c names.
func (a *Account) count(c Counter) {
	switch c {
	case CountModeSwitch:
		a.modeSwitches++
	case CountContextSwitch:
		a.contextSwitches++
	}
}

// name is the account's name, "" for none.
func (a *Account) name() string {
	if a == nil {
		return ""
	}
	return a.Name
}

func (a *Account) addTime(k TimeKind, d time.Duration) {
	if a == nil {
		return
	}
	a.timeByKind[k] += d
}

// Snapshot captures the account counters for delta reporting across a
// measurement window.
type Snapshot struct {
	CPUTime         time.Duration
	UserTime        time.Duration
	KernelTime      time.Duration
	IOWait          time.Duration
	ModeSwitches    uint64
	ContextSwitches uint64
}

// Snapshot returns the current counter values.
func (a *Account) Snapshot() Snapshot {
	return Snapshot{
		CPUTime:         a.CPUTime(),
		UserTime:        a.timeByKind[User],
		KernelTime:      a.timeByKind[Kernel],
		IOWait:          a.ioWait,
		ModeSwitches:    a.modeSwitches,
		ContextSwitches: a.contextSwitches,
	}
}

// Sub returns the change since an earlier snapshot.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		CPUTime:         s.CPUTime - earlier.CPUTime,
		UserTime:        s.UserTime - earlier.UserTime,
		KernelTime:      s.KernelTime - earlier.KernelTime,
		IOWait:          s.IOWait - earlier.IOWait,
		ModeSwitches:    s.ModeSwitches - earlier.ModeSwitches,
		ContextSwitches: s.ContextSwitches - earlier.ContextSwitches,
	}
}
