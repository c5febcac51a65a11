package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// Figure10Row measures input-generation throughput for one (system,
// generator) pair with and without in-memory pool checkpoints (paper §6.5,
// Figure 10). The four index targets pay mini-PMDK's whole-pool formatting
// on every execution unless checkpoints are enabled; memcached maps its pool
// libpmem-style with near-zero initialization, so checkpoints do not help it
// — the paper recommends disabling them there.
type Figure10Row struct {
	System    string
	Generator string
	// WithCP and WithoutCP are executions per second.
	WithCP    float64
	WithoutCP float64
}

// Speedup returns WithCP/WithoutCP.
func (r Figure10Row) Speedup() float64 {
	if r.WithoutCP == 0 {
		return 0
	}
	return r.WithCP / r.WithoutCP
}

// RunFigure10 measures the fuzzing (input-generation) speed. Input
// generation is decoupled from interleaving exploration (paper §4.5), so
// executions run without scheduling or statistics collection.
func RunFigure10(budget api.CampaignSpec) ([]Figure10Row, error) {
	execs := max(budget.MaxExecs, 10)
	gens := []struct {
		name string
		mut  fuzz.Mutator
	}{
		{"PMRace", fuzz.NewOpMutator(16, 4, 24)},
		{"AFL++", &fuzz.ByteMutator{Threads: 4}},
	}
	var rows []Figure10Row
	for _, name := range Systems() {
		factory, err := targets.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 10: %w", err)
		}
		for _, gen := range gens {
			row := Figure10Row{System: displayName(name), Generator: gen.name}
			for _, useCP := range []bool{true, false} {
				rate, err := measureRate(factory, gen.mut, budget.Seed, execs, useCP)
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 10 %s/%s: %w", name, gen.name, err)
				}
				if useCP {
					row.WithCP = rate
				} else {
					row.WithoutCP = rate
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// measureRate times execs mutated executions. Like a campaign, it keeps a
// dedup database, so duplicate findings skip the forensic capture and the
// rate measures fuzzing, not crash-state capture.
func measureRate(factory targets.Factory, mut fuzz.Mutator, seed int64, execs int, useCP bool) (float64, error) {
	db := core.NewDB()
	x := fuzz.NewExecutor(factory, fuzz.ExecOptions{
		UseCheckpoints:     useCP,
		CollectStats:       false,
		KnownInconsistency: db.HasInconsistency,
		KnownSync:          db.HasSync,
	})
	rng := rand.New(rand.NewSource(seed))
	gen := workload.NewGenerator(seed, 16, 4)
	corpus := []*workload.Seed{gen.NewSeed(24)}
	start := time.Now()
	for i := 0; i < execs; i++ {
		s := mut.Mutate(rng, corpus)
		corpus = append(corpus, s)
		if len(corpus) > 8 {
			corpus = corpus[1:]
		}
		res, err := x.Run(s, sched.None{})
		if err != nil {
			return 0, err
		}
		for _, c := range res.Inconsistencies {
			db.MergeInconsistency(c.In)
		}
		for _, c := range res.Syncs {
			db.MergeSync(c.Si)
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(execs) / elapsed.Seconds(), nil
}

// Figure10String renders the rows.
func Figure10String(rows []Figure10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10: the impact of checkpoints (CP) on fuzzing speed (execs/s)\n")
	b.WriteString(fmt.Sprintf("%-16s %-8s %10s %10s %8s\n", "System", "Gen", "with CP", "w/o CP", "speedup"))
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-16s %-8s %10.1f %10.1f %7.2fx\n",
			r.System, r.Generator, r.WithCP, r.WithoutCP, r.Speedup()))
	}
	return b.String()
}
