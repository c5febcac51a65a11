package fuzz

import (
	"fmt"
	"sort"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// describeStrategy renders a strategy's schedule parameters for an artifact
// bundle, including the finding run's outcome for PM-aware exploration.
func describeStrategy(strat sched.Strategy) artifact.Schedule {
	switch s := strat.(type) {
	case *sched.PMAware:
		d := s.Describe()
		o := s.Outcome()
		sd := artifact.Schedule{
			Mode:       "pmaware",
			Addr:       uint64(d.Addr),
			Priority:   d.Priority,
			Skip:       d.InitialSkip,
			CondWaits:  o.CondWaits,
			Signalled:  o.Signalled,
			Disabled:   o.Disabled,
			Privileged: o.PrivilegedUsed,
		}
		for _, id := range d.LoadSites {
			sd.LoadSites = append(sd.LoadSites, site.Lookup(id).String())
		}
		for _, id := range d.StoreSites {
			sd.StoreSites = append(sd.StoreSites, site.Lookup(id).String())
		}
		// Describe iterates Go maps; sort the resolved strings so identical
		// campaigns serialize byte-identical schedule.json files.
		sort.Strings(sd.LoadSites)
		sort.Strings(sd.StoreSites)
		return sd
	case *sched.DelayInjector:
		return artifact.Schedule{Mode: "delay"}
	default:
		return artifact.Schedule{Mode: "none"}
	}
}

// ReplayResult reports one artifact replay.
type ReplayResult struct {
	// Fingerprint is the bug identity the bundle records.
	Fingerprint string
	// Reproduced reports that some replay execution detected an
	// inconsistency with the same fingerprint.
	Reproduced bool
	// Strategy names the execution that reproduced it ("plain" or
	// "pmaware@<addr>").
	Strategy string
	// Execs counts the replay executions performed.
	Execs int
	// Found lists every distinct fingerprint the replays detected, for
	// diagnostics when the recorded one is not among them.
	Found []string
}

// replayWalk is the exploration a replay runs on one seed: a plain
// execution, then PM-aware executions over the sync-point entries of the
// priority queue the plain run's statistics build, in queue order.
type replayWalk struct {
	// first, when non-zero, is the address of the entry explored first,
	// with initial skip firstSkip.
	first     pmem.Addr
	firstSkip int
	// maxEntries bounds the entries explored; zero explores every entry.
	maxEntries int
	// attempts is the executions per entry, with PM-aware seeds
	// 1..attempts.
	attempts int
}

// run walks seed against the registered target. visit sees every execution,
// with a nil entry for the plain run, and ends the walk by returning true.
func (w replayWalk) run(target string, seed *workload.Seed, visit func(*sched.Entry, *ExecResult) bool) error {
	x, err := NewTargetExecutor(target, ExecOptions{UseCheckpoints: true, CollectStats: true})
	if err != nil {
		return err
	}
	res, err := x.Run(seed, sched.None{})
	if err != nil || visit(nil, res) {
		return err
	}
	queue := sched.BuildQueue(res.Stats)
	var entries []*sched.Entry
	for e := queue.Pop(); e != nil; e = queue.Pop() {
		if w.first != 0 && e.Addr == w.first {
			entries = append([]*sched.Entry{e}, entries...)
		} else {
			entries = append(entries, e)
		}
	}
	if w.maxEntries > 0 && len(entries) > w.maxEntries {
		entries = entries[:w.maxEntries]
	}
	for _, e := range entries {
		skip := 0
		if w.first != 0 && e.Addr == w.first {
			skip = w.firstSkip
		}
		for attempt := 1; attempt <= w.attempts; attempt++ {
			cfg := sched.DefaultConfig()
			cfg.Seed = int64(attempt)
			res, err := x.Run(seed, sched.NewPMAware(cfg, e, skip))
			if err != nil || visit(e, res) {
				return err
			}
		}
	}
	return nil
}

// ReplaySeed runs seed against the registered target, plainly and then once
// under PM-aware exploration of every sync-point entry, handing each
// execution to visit (with a nil entry for the plain run) until it returns
// true. It is the walk ReplayArtifact runs, unbounded and with one attempt
// per entry.
func ReplaySeed(target string, seed *workload.Seed, visit func(*sched.Entry, *ExecResult) bool) error {
	return replayWalk{attempts: 1}.run(target, seed, visit)
}

// ReplayArtifact re-executes a forensic bundle against the registered
// target it was recorded from: first the bundle's seed under the plain
// scheduler, then under PM-aware exploration — the recorded sync-point
// address first (pool layout is deterministic for a given target setup, so
// the address identifies the same sync point across processes), then the
// rest of the priority queue, bounded by maxEntries (default 8), two attempts
// each: interleavings are timing-sensitive. It reports whether any execution
// reproduced the recorded bug fingerprint. A bundle whose thread count lies
// outside [1, MaxThreads] is rejected before anything runs.
func ReplayArtifact(target string, b *artifact.Bundle, maxEntries int) (*ReplayResult, error) {
	threads := b.Bug.Threads
	if threads < 1 || threads > MaxThreads {
		return nil, fmt.Errorf("replay: bundle threads %d outside [1, %d]", threads, MaxThreads)
	}
	seed := workload.Decode(b.Seed, threads)
	if seed.Empty() {
		return nil, fmt.Errorf("replay: bundle seed contains no operations")
	}
	if maxEntries <= 0 {
		maxEntries = 8
	}
	r := &ReplayResult{Fingerprint: b.Bug.Fingerprint}
	seen := make(map[string]struct{})
	check := func(res *ExecResult) bool {
		hit := false
		record := func(fp string) {
			if _, ok := seen[fp]; !ok {
				seen[fp] = struct{}{}
				r.Found = append(r.Found, fp)
			}
			if fp == r.Fingerprint {
				hit = true
			}
		}
		for _, c := range res.Inconsistencies {
			record(c.In.Fingerprint())
		}
		for _, c := range res.Syncs {
			record(c.Si.Fingerprint())
		}
		return hit
	}
	walk := replayWalk{
		first:      pmem.Addr(b.Schedule.Addr),
		firstSkip:  b.Schedule.Skip,
		maxEntries: maxEntries,
		attempts:   2,
	}
	err := walk.run(target, seed, func(e *sched.Entry, res *ExecResult) bool {
		r.Execs++
		if !check(res) {
			return false
		}
		r.Reproduced = true
		r.Strategy = "plain"
		if e != nil {
			r.Strategy = fmt.Sprintf("pmaware@%#x", uint64(e.Addr))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}
