package fuzz

import (
	"fmt"
	"sort"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
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

// ReplayArtifact re-executes a forensic bundle against the registered
// target it was recorded from: first the bundle's seed under the plain
// scheduler, then under PM-aware exploration — the recorded sync-point
// address first (pool layout is deterministic for a given target setup, so
// the address identifies the same sync point across processes), then the
// rest of the priority queue, bounded by maxEntries. It reports whether any execution
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
	x, err := NewTargetExecutor(target, ExecOptions{
		UseCheckpoints: true,
		CollectStats:   true,
		HangTimeout:    150 * time.Millisecond,
	})
	if err != nil {
		return nil, err
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
			record(artifact.FingerprintInconsistency(c.In))
		}
		for _, c := range res.Syncs {
			record(artifact.FingerprintSync(c.Si))
		}
		return hit
	}

	res, err := x.Run(seed, sched.None{})
	if err != nil {
		return nil, err
	}
	r.Execs++
	if check(res) {
		r.Reproduced = true
		r.Strategy = "plain"
		return r, nil
	}

	// PM-aware tier: drain the queue the plain run's statistics build,
	// moving the bundle's recorded sync point to the front.
	queue := sched.BuildQueue(res.Stats)
	var entries []*sched.Entry
	for {
		e := queue.Pop()
		if e == nil {
			break
		}
		if b.Schedule.Addr != 0 && uint64(e.Addr) == b.Schedule.Addr {
			entries = append([]*sched.Entry{e}, entries...)
		} else {
			entries = append(entries, e)
		}
	}
	if len(entries) > maxEntries {
		entries = entries[:maxEntries]
	}
	for _, e := range entries {
		skip := 0
		if uint64(e.Addr) == b.Schedule.Addr {
			skip = b.Schedule.Skip
		}
		// Interleavings are timing-sensitive; give each sync point two
		// attempts like the campaign's execution tier.
		for attempt := int64(0); attempt < 2; attempt++ {
			cfg := sched.DefaultConfig()
			cfg.Seed = attempt + 1
			pm := sched.NewPMAware(cfg, e, skip)
			res, err := x.Run(seed, pm)
			if err != nil {
				return nil, err
			}
			r.Execs++
			if check(res) {
				r.Reproduced = true
				r.Strategy = fmt.Sprintf("pmaware@%#x", uint64(e.Addr))
				return r, nil
			}
		}
	}
	return r, nil
}
