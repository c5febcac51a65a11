package main

import (
	"fmt"
	"os"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// replayArtifact re-executes a forensic bug bundle and checks that the
// reproduced finding carries the fingerprint recorded in bug.json. The
// bundle names its own target; the -target flag only overrides a bundle
// missing one. Exit codes: 0 reproduced, 1 not reproduced, 2 error.
func replayArtifact(dir, fallbackTarget string) int {
	b, err := artifact.Load(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: artifact: %v\n", err)
		return 2
	}
	targetName := b.Bug.Target
	if targetName == "" {
		targetName = fallbackTarget
	}
	if _, err := targets.Lookup(targetName); err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: artifact: %v\n", err)
		return 2
	}
	fmt.Printf("replaying artifact %s against %s\n", dir, targetName)
	fmt.Printf("  recorded: [%s/%s] %s\n", b.Bug.Kind, b.Bug.Status, b.Bug.Fingerprint)
	r, err := fuzz.ReplayArtifact(targetName, b, 8)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: artifact: %v\n", err)
		return 2
	}
	if r.Reproduced {
		fmt.Printf("  reproduced after %d execution(s) via %s\n", r.Execs, r.Strategy)
		return 0
	}
	fmt.Printf("  NOT reproduced in %d execution(s); findings observed:\n", r.Execs)
	for _, fp := range r.Found {
		fmt.Printf("    %s\n", fp)
	}
	return 1
}

// replaySeed re-executes one saved seed against a target, first plainly and
// then once per PM-aware sync-point entry, printing every inconsistency the
// checkers report. It is the triage counterpart of the fuzzer: bug reports
// carry the seed that found them (paper §4.1 step 6), and replay turns a
// seed back into the detection.
func replaySeed(targetName, path string, threads int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading seed: %w", err)
	}
	seed := workload.Decode(string(data), threads)
	if seed.Empty() {
		return fmt.Errorf("seed %s contains no operations", path)
	}
	if seed.Proto != nil {
		fmt.Printf("replaying %s (%d protocol commands over %d streams, %d threads) against %s\n",
			path, seed.Size(), len(seed.Proto.Streams), threads, targetName)
	} else {
		fmt.Printf("replaying %s (%d ops, %d threads) against %s\n", path, len(seed.Ops), threads, targetName)
	}
	entries := 0
	err = fuzz.ReplaySeed(targetName, seed, func(e *sched.Entry, res *fuzz.ExecResult) bool {
		if e == nil {
			reportExec("plain execution", res)
			return false
		}
		if len(res.Inconsistencies) > 0 || len(res.Hangs) > 0 {
			reportExec(fmt.Sprintf("entry %d (PM offset %#x)", entries, e.Addr), res)
		}
		entries++
		return false
	})
	if err != nil {
		return err
	}
	fmt.Printf("explored %d sync-point entries\n", entries)
	return nil
}

func reportExec(label string, res *fuzz.ExecResult) {
	if len(res.Inconsistencies) == 0 && len(res.Hangs) == 0 {
		fmt.Printf("%s: no findings (%d candidates)\n", label, len(res.Candidates))
		return
	}
	fmt.Printf("%s:\n", label)
	for _, c := range res.Inconsistencies {
		in := c.In
		fmt.Printf("  [%s/%s] write %s -> read %s -> side effect %s\n",
			in.Kind, in.Flow,
			site.Lookup(site.ID(in.Event.WriteSite)), site.Lookup(site.ID(in.Event.ReadSite)),
			site.Lookup(in.StoreSite))
	}
	for _, s := range res.Syncs {
		fmt.Printf("  [Sync] %q updated at %s\n", s.Si.Var.Name, site.Lookup(s.Si.Site))
	}
	for _, h := range res.Hangs {
		fmt.Printf("  [hang] thread %d at %s: %s\n", h.Thread, h.Site, h.Reason)
	}
}
