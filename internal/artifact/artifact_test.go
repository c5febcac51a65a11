package artifact

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// testInconsistency builds a synthetic inter-thread inconsistency with
// named (stable) sites.
func testInconsistency(t *testing.T) *core.Inconsistency {
	t.Helper()
	wr := site.Named("writer.go")
	rd := site.Named("reader.go")
	st := site.Named("store.go")
	ev := taint.Event{
		Addr: 0x40, Epoch: 3,
		WriteSite: uint32(wr), ReadSite: uint32(rd),
		Writer: 1, Reader: 2,
	}
	return &core.Inconsistency{
		Kind:      core.KindInter,
		Event:     ev,
		StoreSite: st,
		Flow:      core.FlowAddress,
		Stack:     []string{"store.go:0 doPut"},
		Lineage:   []taint.Event{ev},
		Count:     2,
	}
}

func testBundle(t *testing.T) *Bundle {
	t.Helper()
	in := testInconsistency(t)
	rep := FromInconsistency("pclht", 4, in, core.StatusBug,
		Validation{Latency: 1500 * time.Microsecond, RecoveryHung: true})
	return &Bundle{
		Bug:  rep,
		Seed: "0 put 1 10\n1 get 1",
		Schedule: Schedule{
			Mode: "pmaware", Addr: 0x40, Priority: 9, Skip: 1,
			LoadSites: []string{"reader.go:0"}, CondWaits: 2, Signalled: true,
		},
		Trace: []TraceEntry{
			{Seq: 1, Thread: 1, Kind: "store", Addr: 0x40, Site: "writer.go:0"},
			{Seq: 2, Thread: 2, Kind: "load", Addr: 0x40, Site: "reader.go:0"},
		},
		PMDiff: []DirtyWord{
			{Addr: 0x40, Cache: 7, Persisted: 0, Writer: 1, Site: "writer.go:0", Epoch: 3},
		},
	}
}

func TestFingerprintsUseResolvedSites(t *testing.T) {
	in := testInconsistency(t)
	fp := in.Fingerprint()
	want := "inter|writer.go:0->reader.go:0=>store.go:0|address"
	if fp != want {
		t.Fatalf("Inconsistency.Fingerprint = %q, want %q", fp, want)
	}

	si := &core.SyncInconsistency{
		Var:  core.SyncVar{Name: "bucket-lock"},
		Site: site.Named("lock.go"),
	}
	if fp := si.Fingerprint(); fp != "sync|bucket-lock@lock.go:0" {
		t.Fatalf("SyncInconsistency.Fingerprint = %q", fp)
	}
}

func TestFromInconsistencyReport(t *testing.T) {
	in := testInconsistency(t)
	rep := FromInconsistency("pclht", 4, in, core.StatusBug,
		Validation{Latency: 1500 * time.Microsecond, RecoveryHung: true})
	if rep.Schema != SchemaVersion || rep.Kind != "inter" || rep.Status != "bug" {
		t.Fatalf("report header %+v", rep)
	}
	if rep.Target != "pclht" || rep.Threads != 4 {
		t.Fatalf("report target %+v", rep)
	}
	if rep.WriteSite != "writer.go:0" || rep.ReadSite != "reader.go:0" || rep.StoreSite != "store.go:0" {
		t.Fatalf("report sites %+v", rep)
	}
	if rep.Flow != "address" || len(rep.Lineage) != 1 || rep.Lineage[0].WriteSite != "writer.go:0" {
		t.Fatalf("report flow/lineage %+v", rep)
	}
	if rep.ValidationMs != 1.5 || !rep.RecoveryHung {
		t.Fatalf("report validation %+v", rep)
	}
	if !strings.Contains(rep.Summary, "store.go:0") {
		t.Fatalf("summary lacks side-effect site: %q", rep.Summary)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := testBundle(t)
	dir := filepath.Join(t.TempDir(), "0001-inter")
	if err := WriteBundle(dir, b); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{BugFile, SeedFile, ScheduleFile, TraceFile, PMDiffFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The writer normalizes the seed with a trailing newline.
	wantSeed := b.Seed + "\n"
	if got.Seed != wantSeed {
		t.Fatalf("seed round trip: %q, want %q", got.Seed, wantSeed)
	}
	if !reflect.DeepEqual(got.Bug, b.Bug) {
		t.Fatalf("bug round trip:\n got %+v\nwant %+v", got.Bug, b.Bug)
	}
	if !reflect.DeepEqual(got.Schedule, b.Schedule) {
		t.Fatalf("schedule round trip:\n got %+v\nwant %+v", got.Schedule, b.Schedule)
	}
	if !reflect.DeepEqual(got.Trace, b.Trace) {
		t.Fatalf("trace round trip:\n got %+v\nwant %+v", got.Trace, b.Trace)
	}
	if !reflect.DeepEqual(got.PMDiff, b.PMDiff) {
		t.Fatalf("pmdiff round trip:\n got %+v\nwant %+v", got.PMDiff, b.PMDiff)
	}
}

func TestLoadToleratesTrimmedBundle(t *testing.T) {
	b := testBundle(t)
	dir := filepath.Join(t.TempDir(), "trimmed")
	if err := WriteBundle(dir, b); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{ScheduleFile, TraceFile, PMDiffFile} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatalf("trimmed bundle must load: %v", err)
	}
	if got.Bug.Fingerprint != b.Bug.Fingerprint {
		t.Fatalf("fingerprint lost: %q", got.Bug.Fingerprint)
	}

	// bug.json, however, is required.
	if err := os.Remove(filepath.Join(dir, BugFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a bundle without bug.json")
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	b := testBundle(t)
	b.Bug.Schema = SchemaVersion + 1
	dir := filepath.Join(t.TempDir(), "future")
	if err := WriteBundle(dir, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Load(newer schema) err = %v, want schema error", err)
	}
}

func TestWriterDedupAndNumbering(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "bugs"))
	if err != nil {
		t.Fatal(err)
	}
	b := testBundle(t)
	dir1, err := w.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir1) != "0001-inter" {
		t.Fatalf("first bundle dir = %q, want 0001-inter", dir1)
	}

	// Same fingerprint again: silently skipped.
	dup, err := w.Write(b)
	if err != nil || dup != "" {
		t.Fatalf("duplicate write: dir=%q err=%v, want \"\", nil", dup, err)
	}
	if w.Count() != 1 {
		t.Fatalf("Count after dup = %d, want 1", w.Count())
	}

	// A different fingerprint gets the next number.
	b2 := testBundle(t)
	b2.Bug.Fingerprint = "sync|lock@lock.go:0"
	b2.Bug.Kind = "sync"
	dir2, err := w.Write(b2)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir2) != "0002-sync" {
		t.Fatalf("second bundle dir = %q, want 0002-sync", dir2)
	}
	if w.Count() != 2 {
		t.Fatalf("Count = %d, want 2", w.Count())
	}

	// Reopening the same directory resumes numbering after the existing
	// bundles instead of overwriting them.
	w2, err := NewWriter(w.Dir())
	if err != nil {
		t.Fatal(err)
	}
	b3 := testBundle(t)
	b3.Bug.Fingerprint = "sync|other@other.go:0"
	b3.Bug.Kind = "sync"
	dir3, err := w2.Write(b3)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir3) != "0003-sync" {
		t.Fatalf("bundle dir after reopen = %q, want 0003-sync", dir3)
	}
}

// TestWriterRetriesAfterFailedWrite pins that a failed bundle write neither
// consumes the fingerprint nor the bundle number: when the bug recurs, the
// bundle is written as if the failure never happened.
func TestWriterRetriesAfterFailedWrite(t *testing.T) {
	base := filepath.Join(t.TempDir(), "bugs")
	w, err := NewWriter(base)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the bundle directory would go makes MkdirAll
	// (and so Write) fail.
	block := filepath.Join(base, "0001-inter")
	if err := os.WriteFile(block, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	b := testBundle(t)
	if _, err := w.Write(b); err == nil {
		t.Fatal("Write over a blocking file succeeded, want error")
	}
	if w.Count() != 0 {
		t.Fatalf("Count after failed write = %d, want 0", w.Count())
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	dir, err := w.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dir) != "0001-inter" {
		t.Fatalf("retried bundle dir = %q, want 0001-inter", dir)
	}
}

// TestWriterLoadsSeenFingerprints pins cross-campaign dedup through a
// shared directory: a fresh writer over an existing artifact tree refuses
// to rewrite fingerprints already bundled on disk.
func TestWriterLoadsSeenFingerprints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bugs")
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := testBundle(t)
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}

	w2, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w2.Write(b); err != nil || got != "" {
		t.Fatalf("reopened writer rewrote existing fingerprint: dir=%q err=%v", got, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d bundles, want 1", len(entries))
	}
}

// TestGCRetention pins the retention budget: the oldest bundles across a
// two-level artifact tree are removed until at most retain remain, and
// emptied campaign directories disappear with them.
func TestGCRetention(t *testing.T) {
	root := t.TempDir()
	write := func(campaign, name string, age time.Duration) string {
		t.Helper()
		dir := filepath.Join(root, campaign, name)
		b := testBundle(t)
		b.Bug.Fingerprint = campaign + "/" + name
		if err := WriteBundle(dir, b); err != nil {
			t.Fatal(err)
		}
		mod := time.Now().Add(-age)
		if err := os.Chtimes(filepath.Join(dir, BugFile), mod, mod); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	oldest := write("c0001", "0001-inter", 3*time.Hour)
	mid := write("c0001", "0002-sync", 2*time.Hour)
	newest := write("c0002", "0001-inter", time.Hour)

	removed, err := GC(root, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 || removed[0] != oldest || removed[1] != mid {
		t.Fatalf("removed = %v, want [%s %s]", removed, oldest, mid)
	}
	if _, err := os.Stat(newest); err != nil {
		t.Fatalf("newest bundle gone: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "c0001")); !os.IsNotExist(err) {
		t.Fatalf("emptied campaign dir still present (err=%v)", err)
	}

	// Under budget: nothing to do. retain <= 0 disables GC entirely.
	if removed, err := GC(root, 5, time.Minute); err != nil || len(removed) != 0 {
		t.Fatalf("under-budget GC removed %v (err=%v)", removed, err)
	}
	if removed, err := GC(root, 0, time.Minute); err != nil || len(removed) != 0 {
		t.Fatalf("disabled GC removed %v (err=%v)", removed, err)
	}
}

// TestGCGraceWindow: bundles younger than the grace window are exempt from
// the retention budget — a freshly published bundle cannot be collected by
// another campaign's GC pass — while still occupying budget, so the same
// number of aged bundles is removed.
func TestGCGraceWindow(t *testing.T) {
	root := t.TempDir()
	write := func(campaign, name string, age time.Duration) string {
		t.Helper()
		dir := filepath.Join(root, campaign, name)
		b := testBundle(t)
		b.Bug.Fingerprint = campaign + "/" + name
		if err := WriteBundle(dir, b); err != nil {
			t.Fatal(err)
		}
		mod := time.Now().Add(-age)
		if err := os.Chtimes(filepath.Join(dir, BugFile), mod, mod); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	old := write("c0001", "0001-inter", 3*time.Hour)
	fresh := write("c0002", "0001-sync", 0) // just published

	// Budget 1 with both bundles present: the fresh one is newest, so a
	// grace-less GC would keep it and delete the old one — but with grace
	// the fresh bundle is also untouchable, so only the old one can go.
	removed, err := GC(root, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != old {
		t.Fatalf("removed = %v, want [%s]", removed, old)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("bundle inside the grace window was collected: %v", err)
	}

	// With only the fresh bundle left, a repeat pass removes nothing: the
	// grace window shields it even though the budget is exactly met.
	if removed, err := GC(root, 1, time.Minute); err != nil || len(removed) != 0 {
		t.Fatalf("GC removed fresh bundles %v (err=%v)", removed, err)
	}
}

// TestGCSkipsInFlightWrites models the GC-vs-writer race directly: a
// staging directory (dot-prefixed, as Writer.Write stages bundles before
// renaming them into place) already contains a bug.json, yet GC must
// neither count nor delete it, no matter how tight the budget.
func TestGCSkipsInFlightWrites(t *testing.T) {
	root := t.TempDir()
	staging := filepath.Join(root, "c0001", ".0001-inter.tmp")
	b := testBundle(t)
	if err := WriteBundle(staging, b); err != nil {
		t.Fatal(err)
	}
	mod := time.Now().Add(-3 * time.Hour) // even an old-looking temp dir is off-limits
	if err := os.Chtimes(filepath.Join(staging, BugFile), mod, mod); err != nil {
		t.Fatal(err)
	}
	if removed, err := GC(root, 1, 0); err != nil || len(removed) != 0 {
		t.Fatalf("GC touched an in-flight bundle: removed=%v err=%v", removed, err)
	}
	if _, err := os.Stat(filepath.Join(staging, BugFile)); err != nil {
		t.Fatalf("staging directory gone: %v", err)
	}
}

// TestWriterStagesThenRenames pins the publish protocol: a successful Write
// leaves exactly the final bundle (no temp residue), and a reopened writer
// sweeps abandoned staging directories without letting them consume bundle
// numbers or dedup slots.
func TestWriterStagesThenRenames(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := testBundle(t)
	path, err := w.Write(b)
	if err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
		t.Fatalf("directory after Write = %v, want just %s", ents, filepath.Base(path))
	}

	// Abandon a staging dir as a crashed writer would, then reopen.
	stale := filepath.Join(dir, ".0002-sync.tmp")
	b2 := testBundle(t)
	b2.Bug.Fingerprint = "other/fingerprint"
	if err := WriteBundle(stale, b2); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("reopened writer kept stale staging dir (err=%v)", err)
	}
	// The abandoned bundle was never published: its fingerprint must not
	// count as seen, and numbering continues from the published bundle.
	path2, err := w2.Write(b2)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path2) != "0002-"+b2.Bug.Kind {
		t.Fatalf("second bundle = %s, want 0002-%s", filepath.Base(path2), b2.Bug.Kind)
	}
}
