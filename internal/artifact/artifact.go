package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// SchemaVersion is stamped into bug.json; bump on incompatible changes.
const SchemaVersion = 1

// Bundle file names.
const (
	BugFile      = "bug.json"
	SeedFile     = "seed.txt"
	ScheduleFile = "schedule.json"
	TraceFile    = "trace.json"
	PMDiffFile   = "pmdiff.json"
	SpansFile    = "spans.json"
)

// Range is a byte range in the pool.
type Range struct {
	Off uint64 `json:"off"`
	Len uint64 `json:"len"`
}

// LineageEvent is one dirty-read event in the taint expansion of the label
// that made the store a durable side effect, with sites resolved.
type LineageEvent struct {
	Addr      uint64 `json:"addr"`
	Epoch     uint32 `json:"epoch"`
	WriteSite string `json:"write_site"`
	ReadSite  string `json:"read_site"`
	Writer    int32  `json:"writer"`
	Reader    int32  `json:"reader"`
}

// Report is the bug.json document.
type Report struct {
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`   // "inter" | "intra" | "sync"
	Status      string `json:"status"` // verdict from post-failure validation
	Target      string `json:"target"`
	// Threads is the driver-thread count of the finding campaign; replay
	// decodes seed.txt with it.
	Threads int `json:"threads"`

	// Inter-/intra-thread fields.
	Flow       string         `json:"flow,omitempty"` // "value" | "address"
	External   bool           `json:"external,omitempty"`
	WriteSite  string         `json:"write_site,omitempty"`
	ReadSite   string         `json:"read_site,omitempty"`
	StoreSite  string         `json:"store_site,omitempty"`
	SideEffect *Range         `json:"side_effect,omitempty"`
	DirtyRange *Range         `json:"dirty_range,omitempty"`
	Lineage    []LineageEvent `json:"lineage,omitempty"`

	// Synchronization-variable fields.
	SyncVar  string `json:"sync_var,omitempty"`
	SyncSite string `json:"sync_site,omitempty"`
	SyncAddr uint64 `json:"sync_addr,omitempty"`
	OldVal   uint64 `json:"old_val,omitempty"`
	NewVal   uint64 `json:"new_val,omitempty"`
	InitVal  uint64 `json:"init_val,omitempty"`

	Stack       []string `json:"stack,omitempty"`
	Summary     string   `json:"summary"`
	Occurrences int      `json:"occurrences"`

	// Validation records the post-failure run that produced Status.
	ValidationMs float64 `json:"validation_ms"`
	RecoveryHung bool    `json:"recovery_hung,omitempty"`
	// States is the per-crash-state verdict table (additive to schema 1;
	// absent in single-state bundles written by older builds).
	States []StateVerdict `json:"states,omitempty"`
}

// StateVerdict is one row of the per-crash-state verdict table: the outcome
// of running recovery on one enumerated crash image.
type StateVerdict struct {
	// State names the crash state ("side-effect-persisted",
	// "persisted-baseline", "pending-line@<offset>").
	State string `json:"state"`
	// Status is this state's verdict: "bug" or "validated-fp".
	Status string `json:"status"`
	// RecoveryHung reports a hang (spin-lock detector or watchdog).
	RecoveryHung bool `json:"recovery_hung,omitempty"`
	// WallTimeout reports that the wall-clock watchdog declared the hang.
	WallTimeout bool `json:"wall_timeout,omitempty"`
	// RecoveryErr is the recovery failure message, if any.
	RecoveryErr string `json:"recovery_err,omitempty"`
	// LatencyMs is this state's recovery-run wall time.
	LatencyMs float64 `json:"latency_ms"`
}

// Schedule is the schedule.json document: the interleaving-exploration
// decisions of the execution that detected the bug, enough for replay to
// re-target the same sync point (the PM address, not the process-local site
// IDs, identifies it across runs — pool layout is deterministic given the
// same target setup).
type Schedule struct {
	Mode       string   `json:"mode"` // "pmaware" | "delay" | "none"
	Addr       uint64   `json:"addr,omitempty"`
	Priority   int      `json:"priority,omitempty"`
	Skip       int      `json:"skip,omitempty"`
	LoadSites  []string `json:"load_sites,omitempty"`
	StoreSites []string `json:"store_sites,omitempty"`
	// Outcome of the strategy in the finding run (Pitfall bookkeeping).
	CondWaits  int  `json:"cond_waits,omitempty"`
	Signalled  bool `json:"signalled,omitempty"`
	Disabled   bool `json:"disabled,omitempty"`
	Privileged bool `json:"privileged,omitempty"`
}

// TraceEntry is one PM access of a finding's interleaving, sites resolved.
type TraceEntry struct {
	Seq    uint64 `json:"seq"`
	Thread int    `json:"thread"`
	Kind   string `json:"kind"`
	Addr   uint64 `json:"addr"`
	Site   string `json:"site"`
}

// DirtyWord is one still-non-persisted pool word at detection time: the
// cache/persisted value divergence a crash at that instant would expose.
type DirtyWord struct {
	Addr      uint64 `json:"addr"`
	Cache     uint64 `json:"cache"`
	Persisted uint64 `json:"persisted"`
	Writer    int    `json:"writer"`
	Site      string `json:"site"`
	Epoch     uint32 `json:"epoch"`
}

// Bundle is one complete forensic artifact.
type Bundle struct {
	Bug      Report
	Seed     string
	Schedule Schedule
	Trace    []TraceEntry
	PMDiff   []DirtyWord
	// Spans is the campaign flight recorder's last-N spans at bundle time
	// (spans.json): the wall-clock timeline leading up to the finding.
	Spans []obs.Span
}

// siteStr resolves a site ID to its stable file:line string.
func siteStr(id site.ID) string { return site.Lookup(id).String() }

// Validation carries the post-failure run facts the report records.
type Validation struct {
	Latency      time.Duration
	RecoveryHung bool
	// States is the per-crash-state verdict table, in enumeration order.
	States []StateVerdict
}

// ConvertLineage resolves a taint-event lineage for the report.
func ConvertLineage(evs []taint.Event) []LineageEvent {
	out := make([]LineageEvent, 0, len(evs))
	for _, ev := range evs {
		out = append(out, LineageEvent{
			Addr:      ev.Addr,
			Epoch:     ev.Epoch,
			WriteSite: siteStr(site.ID(ev.WriteSite)),
			ReadSite:  siteStr(site.ID(ev.ReadSite)),
			Writer:    ev.Writer,
			Reader:    ev.Reader,
		})
	}
	return out
}

// ConvertTrace resolves a finding's interleaving for the bundle.
func ConvertTrace(accs []core.Access) []TraceEntry {
	out := make([]TraceEntry, 0, len(accs))
	for _, a := range accs {
		out = append(out, TraceEntry{
			Seq:    a.Seq,
			Thread: int(a.Thread),
			Kind:   a.Kind.String(),
			Addr:   uint64(a.Addr),
			Site:   siteStr(a.Site),
		})
	}
	return out
}

// ConvertDirty resolves a pool dirty-word diff for the bundle.
func ConvertDirty(words []pmem.DirtyWord) []DirtyWord {
	out := make([]DirtyWord, 0, len(words))
	for _, w := range words {
		out = append(out, DirtyWord{
			Addr:      uint64(w.Addr),
			Cache:     w.Cache,
			Persisted: w.Persisted,
			Writer:    int(w.Writer),
			Site:      siteStr(site.ID(w.Site)),
			Epoch:     w.Epoch,
		})
	}
	return out
}

// FromInconsistency builds the report for a judged inter-/intra-thread
// inconsistency.
func FromInconsistency(target string, threads int, in *core.Inconsistency, st core.Status, v Validation) Report {
	return Report{
		Schema:       SchemaVersion,
		Fingerprint:  in.Fingerprint(),
		Kind:         in.Class(),
		Status:       st.String(),
		Target:       target,
		Threads:      threads,
		Flow:         in.Flow.String(),
		External:     in.External,
		WriteSite:    siteStr(site.ID(in.Event.WriteSite)),
		ReadSite:     siteStr(site.ID(in.Event.ReadSite)),
		StoreSite:    siteStr(in.StoreSite),
		SideEffect:   &Range{Off: uint64(in.SideEffect.Off), Len: in.SideEffect.Len},
		DirtyRange:   &Range{Off: uint64(in.DirtyRange.Off), Len: in.DirtyRange.Len},
		Lineage:      ConvertLineage(in.Lineage),
		Stack:        in.Stack,
		Summary:      in.Summary(),
		Occurrences:  in.Count,
		ValidationMs: float64(v.Latency.Microseconds()) / 1e3,
		RecoveryHung: v.RecoveryHung,
		States:       v.States,
	}
}

// FromSync builds the report for a judged synchronization inconsistency.
func FromSync(target string, threads int, si *core.SyncInconsistency, st core.Status, v Validation) Report {
	return Report{
		Schema:       SchemaVersion,
		Fingerprint:  si.Fingerprint(),
		Kind:         si.Class(),
		Status:       st.String(),
		Target:       target,
		Threads:      threads,
		SyncVar:      si.Var.Name,
		SyncSite:     siteStr(si.Site),
		SyncAddr:     uint64(si.Addr),
		OldVal:       si.OldVal,
		NewVal:       si.NewVal,
		InitVal:      si.Var.InitVal,
		Stack:        si.Stack,
		Summary:      si.Summary(),
		Occurrences:  si.Count,
		ValidationMs: float64(v.Latency.Microseconds()) / 1e3,
		RecoveryHung: v.RecoveryHung,
		States:       v.States,
	}
}

// Writer emits numbered bundle directories under a base directory,
// deduplicating by fingerprint so a long campaign does not rewrite the same
// bug on every occurrence. Safe for concurrent use by fuzzing workers.
type Writer struct {
	dir  string
	mu   sync.Mutex
	n    int
	seen map[string]struct{}
}

// NewWriter creates the base directory (if needed) and a writer into it.
// Numbering resumes after the highest existing bundle, so pointing a new
// campaign at a previous run's directory never overwrites its bundles; the
// fingerprints of existing bundles are loaded into the dedup set, so a
// later campaign sharing the directory never rewrites a bug an earlier one
// already bundled (the cross-campaign dedup the pmraced control plane
// relies on). A bundle whose bug.json cannot be decoded is skipped for
// dedup but still counts for numbering.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating %s: %w", dir, err)
	}
	w := &Writer{dir: dir, seen: make(map[string]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && strings.HasSuffix(e.Name(), tmpSuffix) {
			// A staging area a previous writer abandoned mid-crash (bundles
			// land via rename, so a completed one never keeps the prefix).
			// Sweep it; it neither counts for numbering nor for dedup.
			_ = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
		if _, ok := bundleBug(dir, e); !ok {
			continue
		}
		num, _, _ := strings.Cut(e.Name(), "-")
		if n, err := strconv.Atoi(num); err == nil && n > w.n {
			w.n = n
		}
		var rep Report
		if err := readJSON(filepath.Join(dir, e.Name(), BugFile), &rep); err == nil && rep.Fingerprint != "" {
			w.seen[rep.Fingerprint] = struct{}{}
		}
	}
	return w, nil
}

// Dir returns the writer's base directory.
func (w *Writer) Dir() string { return w.dir }

// Count returns how many bundles have been written.
func (w *Writer) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// tmpSuffix marks a writer's staging directory. Staging names also carry a
// leading dot, which the GC walk, bundle listings and reopened writers all
// skip — a half-written bundle is invisible everywhere until it is renamed
// into place.
const tmpSuffix = ".tmp"

// bundleBug is the one rule for what counts as a bundle: a directory entry
// of dir, without the staging areas' leading dot, holding bug.json. It
// returns bug.json's file info, whose modification time GC ages bundles by.
func bundleBug(dir string, e os.DirEntry) (os.FileInfo, bool) {
	if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
		return nil, false
	}
	fi, err := os.Stat(filepath.Join(dir, e.Name(), BugFile))
	return fi, err == nil
}

// ListBundles names the bundles directly under dir, oldest first (the
// writer numbers them, so lexical order is chronological). A missing dir
// holds none.
func ListBundles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := bundleBug(dir, e); ok {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Write persists the bundle as the next numbered directory and returns its
// path; a bundle whose fingerprint was already written returns "" with no
// error. The bundle's files are staged in a dot-prefixed temp directory and
// renamed into place, so concurrent readers of the tree (artifact listings,
// retention GC) never observe a partially written bundle. The fingerprint
// is recorded (and the number consumed) only after the rename, so a failed
// write can be retried when the bug recurs. The lock is held across the
// disk write: bundles are rare (one per distinct confirmed bug), so
// serializing them costs nothing measurable.
func (w *Writer) Write(b *Bundle) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.seen[b.Bug.Fingerprint]; dup {
		return "", nil
	}
	name := fmt.Sprintf("%04d-%s", w.n+1, b.Bug.Kind)
	tmp := filepath.Join(w.dir, "."+name+tmpSuffix)
	if err := WriteBundle(tmp, b); err != nil {
		_ = os.RemoveAll(tmp)
		return "", err
	}
	dir := filepath.Join(w.dir, name)
	if err := os.Rename(tmp, dir); err != nil {
		_ = os.RemoveAll(tmp)
		return "", fmt.Errorf("artifact: publishing %s: %w", dir, err)
	}
	w.n++
	w.seen[b.Bug.Fingerprint] = struct{}{}
	return dir, nil
}

// WriteBundle persists one bundle into dir, creating it.
func WriteBundle(dir string, b *Bundle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact: creating %s: %w", dir, err)
	}
	if err := writeJSON(filepath.Join(dir, BugFile), b.Bug); err != nil {
		return err
	}
	seed := b.Seed
	if !strings.HasSuffix(seed, "\n") && seed != "" {
		seed += "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, SeedFile), []byte(seed), 0o644); err != nil {
		return fmt.Errorf("artifact: writing seed: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, ScheduleFile), b.Schedule); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, TraceFile), b.Trace); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, PMDiffFile), b.PMDiff); err != nil {
		return err
	}
	spans := b.Spans
	if spans == nil {
		// spans.json is always present — an untraced campaign writes an
		// empty list, so consumers never special-case its absence.
		spans = []obs.Span{}
	}
	return writeJSON(filepath.Join(dir, SpansFile), spans)
}

// Load reads a bundle back from dir. bug.json and seed.txt are required;
// the forensic extras are optional so hand-trimmed bundles still replay.
func Load(dir string) (*Bundle, error) {
	b := &Bundle{}
	if err := readJSON(filepath.Join(dir, BugFile), &b.Bug); err != nil {
		return nil, err
	}
	if b.Bug.Schema > SchemaVersion {
		return nil, fmt.Errorf("artifact: %s has schema %d, this build understands <= %d",
			dir, b.Bug.Schema, SchemaVersion)
	}
	seed, err := os.ReadFile(filepath.Join(dir, SeedFile))
	if err != nil {
		return nil, fmt.Errorf("artifact: reading seed: %w", err)
	}
	b.Seed = string(seed)
	if err := readJSON(filepath.Join(dir, ScheduleFile), &b.Schedule); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, TraceFile), &b.Trace); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, PMDiffFile), &b.PMDiff); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, SpansFile), &b.Spans); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return b, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: encoding %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// readJSON decodes path into v; a missing file is returned as an
// os.IsNotExist error for the caller to tolerate.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("artifact: decoding %s: %w", filepath.Base(path), err)
	}
	return nil
}
