package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/targets/memcached"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// Table4Result compares input-generator quality on memcached's command
// parser (paper Table 4, §6.5): the byte-havoc AFL++ baseline wastes about a
// third of its commands on parse errors, while PMRace's operation mutator
// emits only valid commands and reaches deeper handler code.
type Table4Result struct {
	// Commands counts parsed commands per scheme and Table 4 class.
	Commands map[string]map[string]int
	// Branch is the branch coverage each scheme reached.
	Branch map[string]int
	// Invocations is the total number of process_command invocations.
	Invocations map[string]int
}

// RunTable4 generates seed corpora with both mutators and replays every
// command through the memcached text parser, mirroring the paper's AFL-COV
// measurement over 100 random seeds per mutator.
func RunTable4(budget api.CampaignSpec) (*Table4Result, error) {
	const seedsPerScheme = 100
	out := &Table4Result{
		Commands:    make(map[string]map[string]int),
		Branch:      make(map[string]int),
		Invocations: make(map[string]int),
	}
	schemes := []struct {
		name string
		mut  fuzz.Mutator
	}{
		{"AFL++", &fuzz.ByteMutator{Threads: 4}},
		{"PMRace", fuzz.NewOpMutator(16, 4, 24)},
	}
	for _, scheme := range schemes {
		rng := rand.New(rand.NewSource(budget.Seed))
		kv := memcached.New()
		env := rt.NewEnv(pmem.New(kv.PoolSize()), rt.Config{})
		th := env.Spawn()
		if err := kv.Setup(th); err != nil {
			return nil, err
		}
		gen := workload.NewGenerator(budget.Seed, 16, 4)
		corpus := []*workload.Seed{gen.NewSeed(24)}
		for i := 0; i < seedsPerScheme; i++ {
			seed := scheme.mut.Mutate(rng, corpus)
			corpus = append(corpus, seed)
			if len(corpus) > 16 {
				corpus = corpus[1:]
			}
			for _, op := range seed.Ops {
				// Replay through the text parser, exactly as a
				// fuzzing campaign delivers input.
				if err := kv.ExecLine(th, op.String()); err != nil {
					continue // invalid command rejected
				}
			}
		}
		out.Commands[scheme.name] = kv.CmdCounts()
		out.Branch[scheme.name] = env.Coverage().Branch.Count()
		total := 0
		for _, n := range kv.CmdCounts() {
			total += n
		}
		out.Invocations[scheme.name] = total
	}
	return out, nil
}

// String renders the table in the paper's layout.
func (r *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Table 4: the code coverage of memcached-pmem commands\n")
	b.WriteString(fmt.Sprintf("%-8s", "Scheme"))
	for _, class := range workload.Classes() {
		b.WriteString(fmt.Sprintf(" %8s", class))
	}
	b.WriteString(fmt.Sprintf(" %8s %8s\n", "Total", "Branch"))
	for _, scheme := range []string{"AFL++", "PMRace"} {
		b.WriteString(fmt.Sprintf("%-8s", scheme))
		for _, class := range workload.Classes() {
			b.WriteString(fmt.Sprintf(" %8d", r.Commands[scheme][class]))
		}
		b.WriteString(fmt.Sprintf(" %8d %8d\n", r.Invocations[scheme], r.Branch[scheme]))
	}
	return b.String()
}
