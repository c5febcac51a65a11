package fuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// lockyTarget leaves a flushed-but-unfenced lock word behind every mutation:
// its recovery spin-locks that word, so it hangs exactly when a crash state
// contains the unfenced acquisition — the scenario single-adversarial-image
// validation cannot see (the lock store never reaches the persisted image or
// the side-effect range), and bounded crash-state enumeration can.
type lockyTarget struct{}

func (s *lockyTarget) Name() string             { return "locky" }
func (s *lockyTarget) PoolSize() uint64         { return 4096 }
func (s *lockyTarget) Annotations() int         { return 0 }
func (s *lockyTarget) Setup(t *rt.Thread) error { return nil }

func (s *lockyTarget) Exec(t *rt.Thread, op workload.Op) error {
	t.Branch()
	if op.Kind.Mutates() {
		// Acquire-style store, flushed but never fenced: a staged
		// pending line at detection time.
		t.Store64(192, 1, taint.None, taint.None)
		t.Flush(192, 8)
		// Dirty shared word another thread cross-reads.
		t.Store64(64, targets.Fingerprint(op.Key), taint.None, taint.None)
	} else {
		v, lab := t.Load64(64)
		t.NTStore64(512, v, lab, taint.None)
	}
	return nil
}

func (s *lockyTarget) Recover(t *rt.Thread) error {
	t.SpinLock(192) // hangs iff the crash preserved the unfenced acquisition
	t.SpinUnlock(192)
	t.NTStore64(512, 0, taint.None, taint.None) // fix the durable side effect
	return nil
}

func lockyFactory() targets.Factory {
	return func() targets.Target { return &lockyTarget{} }
}

// lockySeed makes one thread mutate and then read back: the dirty read plus
// the NT store is an intra-thread inconsistency, detected deterministically
// regardless of how the runtime schedules driver threads.
func lockySeed() *workload.Seed {
	return &workload.Seed{Threads: 1, Ops: []workload.Op{
		{Kind: workload.OpSet, Key: "a", Value: "1"},
		{Kind: workload.OpGet, Key: "a"},
	}}
}

// driveUntilFinding executes the seed until the detector produces at least
// one judged inconsistency.
func driveUntilFinding(t *testing.T, f *Fuzzer) {
	t.Helper()
	seed := lockySeed()
	for i := 0; i < 20; i++ {
		if _, err := f.runOne(seed, sched.None{}, 0); err != nil {
			t.Fatalf("runOne: %v", err)
		}
		if len(f.db.Inconsistencies()) > 0 {
			return
		}
	}
	t.Fatalf("no inconsistency detected in 20 executions")
}

// TestMultiCrashStateFindsBugSingleImageMisses is the acceptance scenario:
// the same target validates clean under the paper's single adversarial image
// (recovery overwrites the side effect and the lock word is absent from the
// persisted image) but is a confirmed bug under crash-state enumeration (the
// pending-line state preserves the unfenced lock acquisition and recovery
// hangs on it) — with the difference recorded in the artifact bundle's
// per-state verdict table.
func TestMultiCrashStateFindsBugSingleImageMisses(t *testing.T) {
	single := NewWithFactory(lockyFactory(), Options{
		Threads: 2, Workers: 1, Mode: ModeNone,
		MaxExecs: 1000, Duration: time.Minute,
	})
	single.start = time.Now()
	driveUntilFinding(t, single)
	for _, j := range single.db.Inconsistencies() {
		if j.Status == core.StatusBug {
			t.Fatalf("single-image validation found a bug; the lock hang must be invisible to it: %+v", j)
		}
	}

	dir := t.TempDir()
	multi := NewWithFactory(lockyFactory(), Options{
		Threads: 2, Workers: 1, Mode: ModeNone,
		MaxExecs: 1000, Duration: time.Minute,
		MaxCrashStates: 8,
	})
	w, err := artifact.NewWriter(dir)
	if err != nil {
		t.Fatalf("artifact writer: %v", err)
	}
	multi.artifacts = w
	multi.start = time.Now()
	driveUntilFinding(t, multi)

	var bugs int
	for _, j := range multi.db.Inconsistencies() {
		if j.Status == core.StatusBug {
			bugs++
		}
	}
	if bugs == 0 {
		t.Fatalf("multi-crash-state validation must confirm the lock bug")
	}

	// The written bundle must carry the per-state verdict table showing the
	// verdict difference: adversarial state passed, pending-line state hung.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no artifact bundles written (err=%v)", err)
	}
	found := false
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), artifact.BugFile))
		if err != nil {
			continue
		}
		var rep artifact.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("decoding %s: %v", e.Name(), err)
		}
		var passed, hung bool
		for _, sv := range rep.States {
			if sv.Status == core.StatusValidatedFP.String() {
				passed = true
			}
			if sv.Status == core.StatusBug.String() && sv.RecoveryHung {
				hung = true
			}
		}
		if passed && hung {
			found = true
		}
	}
	if !found {
		t.Fatalf("no bundle records both a passing and a hung crash state")
	}
}

// TestValidationImageOwnershipRace exercises crash-state ownership under
// load: four fuzzing workers validate their new findings concurrently, each
// on its own worker, while the others merge duplicates into the same DB
// records and the artifact writer serializes states and pmdiffs. Run under
// -race, it fails if validation or pmdiff serialization reads state that
// another worker still writes.
func TestValidationImageOwnershipRace(t *testing.T) {
	dir := t.TempDir()
	f := NewWithFactory(lockyFactory(), Options{
		Threads: 2, Workers: 4, Mode: ModeNone,
		MaxExecs: 60, Duration: 20 * time.Second,
		MaxCrashStates: 4,
		ArtifactDir:    dir,
		ArtifactAll:    true,
	})
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Execs == 0 {
		t.Fatalf("campaign ran no executions")
	}
}
