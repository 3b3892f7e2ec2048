// Package trace records the VFS op stream of any testbed run into a
// versioned, deterministic trace file, replays it against any client
// configuration, and diffs per-op latency between configurations —
// the capture→replay→diff loop that turns every scenario ever run
// into a reusable benchmark (see TRACES.md).
//
// A trace is a sequence of operations grouped into streams. A stream
// is one originating thread of the recorded run: operations within a
// stream were issued sequentially (each after the previous completed),
// so replay preserves per-stream order while streams proceed
// concurrently. Stream ids are canonicalized to dense ranks ordered by
// first issue time, so the same run recorded twice produces
// byte-identical files regardless of process-id assignment.
//
// File format (JSONL, version 1): a header object
//
//	{"danaus_op_trace":1,"label":"...","ops":N}
//
// followed by exactly N op objects, one per line, in seq order:
//
//	{"seq":0,"stream":0,"tenant":"fls0","op":"open","path":"/d/f00000",
//	 "flags":1,"off":0,"len":0,"issue_ns":1000000,"lat_ns":52000}
//
// Durations are integer nanoseconds of virtual time. Optional fields
// (path2, flags, off, len, err) are omitted when zero. See TRACES.md
// for full field semantics and the determinism guarantees.
package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/vfsapi"
)

// Version is the trace file format version this package reads and
// writes. Read rejects files with any other version.
const Version = 1

// Op is one recorded VFS operation. Seq is its global position in the
// trace (issue order); Stream the canonical id of the issuing thread.
// Path, Path2, Flags, Offset and Len carry everything needed to
// reissue the operation byte-identically; Issue and Latency record
// when it was issued in virtual time and how long it took.
type Op struct {
	Seq     int           `json:"seq"`
	Stream  int           `json:"stream"`
	Tenant  string        `json:"tenant"`
	Kind    string        `json:"op"`
	Path    string        `json:"path,omitempty"`
	Path2   string        `json:"path2,omitempty"` // rename destination
	Flags   int           `json:"flags,omitempty"` // open flags bitmask
	Offset  int64         `json:"off,omitempty"`
	Len     int64         `json:"len,omitempty"`
	Issue   time.Duration `json:"issue_ns"`
	Latency time.Duration `json:"lat_ns"`
	Err     bool          `json:"err,omitempty"`
}

// Trace is a recorded op stream.
type Trace struct {
	Label string
	Ops   []Op
}

// header is the first line of a trace file.
type header struct {
	Version int    `json:"danaus_op_trace"`
	Label   string `json:"label"`
	Ops     int    `json:"ops"`
}

// Streams returns the distinct stream ids, ascending. Canonical traces
// have dense ids 0..n-1.
func (t *Trace) Streams() []int {
	seen := map[int]bool{}
	for i := range t.Ops {
		seen[t.Ops[i].Stream] = true
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Tenants returns the distinct tenant names, sorted.
func (t *Trace) Tenants() []string {
	seen := map[string]bool{}
	for i := range t.Ops {
		seen[t.Ops[i].Tenant] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Schedule renders the op schedule — everything about the trace except
// measured latencies and the label — as one line per op. Two runs that
// issued the same operations at the same virtual times have
// byte-identical schedules even when the operations took different
// times to complete; this is the object the replay-determinism
// guarantee is stated over.
func (t *Trace) Schedule() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops %d\n", len(t.Ops))
	for i := range t.Ops {
		op := &t.Ops[i]
		fmt.Fprintf(&b, "%d %d %s %s %q %q %d %d %d %d\n",
			op.Seq, op.Stream, op.Tenant, op.Kind, op.Path, op.Path2,
			op.Flags, op.Offset, op.Len, int64(op.Issue))
	}
	return b.String()
}

// ScheduleHash returns the sha256 of Schedule() in hex — a compact
// equality token for logs and fuzz artifacts.
func (t *Trace) ScheduleHash() string {
	sum := sha256.Sum256([]byte(t.Schedule()))
	return hex.EncodeToString(sum[:])
}

// OpSequence renders the time-free projection of the trace: per
// stream, in stream order, each op's reissue parameters without issue
// times. Replaying a trace under a *different* configuration shifts
// issue times (an op cannot be reissued before its stream predecessor
// completes) but never reorders or rewrites ops, so OpSequence is
// invariant across configurations while Schedule is not.
func (t *Trace) OpSequence() string {
	var b strings.Builder
	for _, id := range t.Streams() {
		fmt.Fprintf(&b, "stream %d\n", id)
		for i := range t.Ops {
			op := &t.Ops[i]
			if op.Stream != id {
				continue
			}
			fmt.Fprintf(&b, "%s %s %q %q %d %d %d\n",
				op.Tenant, op.Kind, op.Path, op.Path2,
				op.Flags, op.Offset, op.Len)
		}
	}
	return b.String()
}

// Write serializes the trace in format Version. Output is
// deterministic: identical traces produce identical bytes.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Version: Version, Label: t.Label, Ops: len(t.Ops)}); err != nil {
		return err
	}
	for i := range t.Ops {
		if err := enc.Encode(&t.Ops[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MaxOpLen is the most bytes one traced op may read or write (1 GiB).
const MaxOpLen = 1 << 30

// maxPrealloc bounds the ops Read allocates room for from the header's
// count, which it cannot trust before the ops are there.
const maxPrealloc = 1 << 10

// Read parses a trace, validating the header version and op count,
// every op line — a known op kind, no negative offset or length, a
// length of at most MaxOpLen whose end does not overflow, a stream id
// that is dense (one seen before, or one more than the largest) — and
// that the op count and seq numbering match the header. Truncated or
// corrupt files fail with a line-numbered error.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty file")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", h.Version, Version)
	}
	if h.Ops < 0 {
		return nil, fmt.Errorf("trace: line 1: negative \"ops\" count %d", h.Ops)
	}
	t := &Trace{Label: h.Label, Ops: make([]Op, 0, min(h.Ops, maxPrealloc))}
	line, streams := 1, 0 // streams: the ids seen so far are 0..streams-1
	for sc.Scan() {
		line++
		var op Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if op.Seq != len(t.Ops) {
			return nil, fmt.Errorf("trace: line %d: seq %d out of order (want %d)", line, op.Seq, len(t.Ops))
		}
		if _, ok := vfsapi.ParseKind(op.Kind); !ok {
			return nil, fmt.Errorf("trace: line %d: unknown op kind %q", line, op.Kind)
		}
		switch {
		case op.Offset < 0 || op.Len < 0:
			return nil, fmt.Errorf("trace: line %d: negative offset %d or length %d", line, op.Offset, op.Len)
		case op.Len > MaxOpLen:
			return nil, fmt.Errorf("trace: line %d: \"len\" %d above the per-op maximum %d", line, op.Len, int64(MaxOpLen))
		case op.Offset > math.MaxInt64-op.Len:
			return nil, fmt.Errorf("trace: line %d: \"off\" %d + \"len\" %d overflows", line, op.Offset, op.Len)
		case op.Stream < 0 || op.Stream > streams:
			return nil, fmt.Errorf("trace: line %d: \"stream\" %d not dense (want at most %d)", line, op.Stream, streams)
		case op.Stream == streams:
			streams++
		}
		t.Ops = append(t.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Ops) != h.Ops {
		return nil, fmt.Errorf("trace: truncated: header declares %d ops, found %d", h.Ops, len(t.Ops))
	}
	return t, nil
}

// ReadFile reads a trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// assemble canonicalizes raw per-stream op lists into a Trace: streams
// are ranked by (first issue time, original id) and renumbered to
// dense ids in rank order, then all ops are merged into one global
// issue-order sequence (ties broken by stream rank; per-stream order
// preserved) and numbered. Both the recorder and the replayer produce
// traces through this one function, so the canonical form — and with
// it byte-identity of identical runs — is shared.
func assemble(label string, streams map[int64][]Op) *Trace {
	type stream struct {
		orig  int64
		first time.Duration
		ops   []Op
	}
	ranked := make([]stream, 0, len(streams))
	total := 0
	for id, ops := range streams {
		if len(ops) == 0 {
			continue
		}
		ranked = append(ranked, stream{orig: id, first: ops[0].Issue, ops: ops})
		total += len(ops)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].first != ranked[j].first {
			return ranked[i].first < ranked[j].first
		}
		return ranked[i].orig < ranked[j].orig
	})
	type keyed struct {
		op   Op
		rank int
		idx  int // position within the stream
	}
	all := make([]keyed, 0, total)
	for rank := range ranked {
		for idx, op := range ranked[rank].ops {
			all = append(all, keyed{op: op, rank: rank, idx: idx})
		}
	}
	// Issue times are nondecreasing within a stream (ops are issued
	// sequentially), so (issue, rank, in-stream index) is a total order
	// that preserves per-stream order.
	sort.Slice(all, func(i, j int) bool {
		if all[i].op.Issue != all[j].op.Issue {
			return all[i].op.Issue < all[j].op.Issue
		}
		if all[i].rank != all[j].rank {
			return all[i].rank < all[j].rank
		}
		return all[i].idx < all[j].idx
	})
	out := &Trace{Label: label, Ops: make([]Op, 0, total)}
	for i := range all {
		op := all[i].op
		op.Seq = i
		op.Stream = all[i].rank
		out.Ops = append(out.Ops, op)
	}
	return out
}
