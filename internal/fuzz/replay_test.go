package fuzz

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
)

// TestArtifactAllRequiresDir pins that ArtifactAll without ArtifactDir is a
// configuration error, not a silent no-op.
func TestArtifactAllRequiresDir(t *testing.T) {
	fz, err := New("pclht", Options{
		Threads:     2,
		KeySpace:    8,
		OpsPerSeed:  4,
		MaxExecs:    1,
		Duration:    time.Second,
		Workers:     1,
		ArtifactAll: true,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if _, err := fz.Run(); err == nil {
		t.Fatal("Run with ArtifactAll but no ArtifactDir succeeded, want error")
	}
}

// TestArtifactRoundTripReplay drives the full forensic pipeline: a campaign
// with an artifact directory must write one bundle per confirmed bug, and a
// written bundle must Load and ReplayArtifact back to the same fingerprint.
func TestArtifactRoundTripReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loop")
	}
	dir := t.TempDir()
	fz, err := New("pclht", Options{
		Threads:     4,
		KeySpace:    12,
		OpsPerSeed:  40,
		MaxExecs:    60,
		Duration:    60 * time.Second,
		Seed:        7,
		Workers:     2,
		ArtifactDir: dir,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Bugs) == 0 {
		t.Fatalf("campaign found no bugs, cannot test artifacts")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no artifact bundles written for %d bugs", len(res.Bugs))
	}

	// Every bundle must load; the sync bundle replays deterministically
	// (the detection fires on the plain run), so require reproduction for
	// it and at least attempt the others.
	var reproduced int
	var syncSeen bool
	for _, e := range entries {
		bdir := filepath.Join(dir, e.Name())
		b, err := artifact.Load(bdir)
		if err != nil {
			t.Fatalf("loading %s: %v", e.Name(), err)
		}
		if b.Bug.Fingerprint == "" || b.Bug.Target != "pclht" || b.Bug.Status != "bug" {
			t.Fatalf("%s: malformed report %+v", e.Name(), b.Bug)
		}
		if b.Seed == "" {
			t.Fatalf("%s: empty seed", e.Name())
		}
		r, err := ReplayArtifact("pclht", b, 8)
		if err != nil {
			t.Fatalf("replaying %s: %v", e.Name(), err)
		}
		if r.Execs == 0 {
			t.Fatalf("%s: replay ran no executions", e.Name())
		}
		if r.Reproduced {
			reproduced++
		}
		if b.Bug.Kind == "sync" {
			syncSeen = true
			if !r.Reproduced {
				t.Errorf("%s: sync bundle not reproduced; recorded %q, found %v",
					e.Name(), r.Fingerprint, r.Found)
			}
		}
		t.Logf("%s: reproduced=%v execs=%d strategy=%s", e.Name(), r.Reproduced, r.Execs, r.Strategy)
	}
	if !syncSeen {
		t.Errorf("no sync bundle among %d artifacts", len(entries))
	}
	if reproduced == 0 {
		t.Errorf("no bundle reproduced its recorded fingerprint")
	}
}

// TestReplayArtifactRejectsEmptySeed covers the error path a hand-edited
// bundle can hit.
func TestReplayArtifactRejectsEmptySeed(t *testing.T) {
	b := &artifact.Bundle{Bug: artifact.Report{Fingerprint: "x", Threads: 4}}
	if _, err := ReplayArtifact("pclht", b, 4); err == nil {
		t.Fatal("ReplayArtifact accepted an empty seed")
	}
}

// TestReplayArtifactRejectsThreadsOutOfRange feeds bundles whose bug.json
// names a thread count outside [1, MaxThreads]: replay must refuse them
// before building a target or starting any driver thread.
func TestReplayArtifactRejectsThreadsOutOfRange(t *testing.T) {
	before := countingBuilt.Load()
	for _, threads := range []int{-1, 0, MaxThreads + 1, 1 << 30} {
		b := &artifact.Bundle{
			Bug:  artifact.Report{Fingerprint: "x", Threads: threads},
			Seed: "set k 1\nget k\n",
		}
		if _, err := ReplayArtifact(countingName, b, 4); err == nil {
			t.Errorf("threads %d: ReplayArtifact accepted the bundle", threads)
		}
	}
	if n := countingBuilt.Load() - before; n != 0 {
		t.Fatalf("replay built %d targets for out-of-range bundles", n)
	}
}
