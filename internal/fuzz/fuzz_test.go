package fuzz

import (
	"math/rand"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/targets"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func TestOpMutatorProducesValidSeeds(t *testing.T) {
	m := NewOpMutator(8, 4, 24)
	rng := rand.New(rand.NewSource(1))
	corpus := []*workload.Seed{workload.NewGenerator(1, 8, 4).NewSeed(24)}
	for i := 0; i < 200; i++ {
		s := m.Mutate(rng, corpus)
		if s == nil || len(s.Ops) == 0 {
			t.Fatalf("mutation %d produced empty seed", i)
		}
		for _, op := range s.Ops {
			if op.Kind == workload.OpError {
				t.Fatalf("operation mutator must never emit invalid ops")
			}
		}
		corpus = append(corpus, s)
		if len(corpus) > 8 {
			corpus = corpus[1:]
		}
	}
}

func TestOpMutatorEmptyCorpus(t *testing.T) {
	m := NewOpMutator(8, 4, 24)
	s := m.Mutate(rand.New(rand.NewSource(2)), nil)
	if len(s.Ops) != 24 || s.Threads != 4 {
		t.Fatalf("fresh seed = %d ops %d threads", len(s.Ops), s.Threads)
	}
}

func TestOpMutatorPopulationFallback(t *testing.T) {
	m := NewOpMutator(8, 4, 24)
	m.MarkStale()
	m.MarkStale()
	m.MarkStale()
	rng := rand.New(rand.NewSource(3))
	corpus := []*workload.Seed{workload.NewGenerator(1, 8, 4).NewSeed(4)}
	s := m.Mutate(rng, corpus)
	for _, op := range s.Ops {
		if op.Kind != workload.OpSet {
			t.Fatalf("population fallback must emit inserts only, got %v", op.Kind)
		}
	}
	if len(s.Ops) != 48 {
		t.Fatalf("population seed size = %d", len(s.Ops))
	}
}

func TestByteMutatorProducesErrors(t *testing.T) {
	m := &ByteMutator{Threads: 4}
	rng := rand.New(rand.NewSource(4))
	corpus := []*workload.Seed{workload.NewGenerator(1, 8, 4).NewSeed(32)}
	errors, total := 0, 0
	for i := 0; i < 100; i++ {
		s := m.Mutate(rng, corpus)
		for _, op := range s.Ops {
			total++
			if op.Kind == workload.OpError {
				errors++
			}
		}
	}
	if errors == 0 {
		t.Fatalf("byte-level havoc must produce some invalid commands (Table 4's Error class)")
	}
	if total == 0 {
		t.Fatalf("no ops produced")
	}
}

func pclhtFactory(t *testing.T) targets.Factory {
	t.Helper()
	return func() targets.Target {
		tgt, err := targets.New("pclht")
		if err != nil {
			panic(err)
		}
		return tgt
	}
}

func TestExecutorRunsSeedSequentially(t *testing.T) {
	x := NewExecutor(pclhtFactory(t), ExecOptions{CollectStats: true, HangTimeout: 50 * time.Millisecond})
	seed := workload.NewGenerator(5, 8, 1).NewSeed(20) // single thread
	res, err := x.Run(seed, sched.None{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Duration <= 0 || res.Coverage == nil {
		t.Fatalf("result incomplete: %+v", res)
	}
	if br := res.Coverage.Branch.Count(); br == 0 {
		t.Fatalf("branch coverage must be recorded")
	}
	if len(res.Stats) == 0 {
		t.Fatalf("stats must be collected")
	}
}

func TestExecutorCheckpointFasterSetup(t *testing.T) {
	seed := workload.NewGenerator(5, 8, 2).NewSeed(10)
	withCP := NewExecutor(pclhtFactory(t), ExecOptions{UseCheckpoints: true})
	noCP := NewExecutor(pclhtFactory(t), ExecOptions{UseCheckpoints: false})
	// Warm the checkpoint, then compare one run each.
	if _, err := withCP.Run(seed, sched.None{}); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	r1, err := withCP.Run(seed, sched.None{})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	r2, err := noCP.Run(seed, sched.None{})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	// Not a strict benchmark, but the checkpointed setup path must work
	// and produce a usable execution.
	if r1.Duration <= 0 || r2.Duration <= 0 {
		t.Fatalf("durations: %v %v", r1.Duration, r2.Duration)
	}
}

func TestFuzzerFindsPCLHTBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loop")
	}
	fz, err := New("pclht", Options{
		Threads:    4,
		KeySpace:   12,
		OpsPerSeed: 40,
		MaxExecs:   60,
		Duration:   60 * time.Second,
		Seed:       7,
		Workers:    2,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Execs == 0 {
		t.Fatalf("no executions ran")
	}
	// Bug 3 (intra, GC from unflushed table_new) must be found and
	// survive validation.
	foundIntra := false
	for _, b := range res.Bugs {
		if b.Kind == core.KindIntra {
			foundIntra = true
		}
	}
	if !foundIntra {
		t.Errorf("intra-thread GC bug (Bug 3) not found; bugs: %+v", res.Bugs)
	}
	// Bug 2 (sync, bucket locks) must be detected; the bucket-lock
	// variable must survive validation as a bug while at least one global
	// lock validates as a false positive.
	syncBug := false
	for _, b := range res.Bugs {
		if b.Kind == core.KindSync && b.VarName == "bucket-lock" {
			syncBug = true
		}
	}
	if !syncBug {
		t.Errorf("bucket-lock sync bug (Bug 2) not found; bugs: %+v", res.Bugs)
	}
	// Bug 1 (inter, insert through unflushed table pointer) should be
	// found by the PM-aware exploration.
	interBug := false
	for _, b := range res.Bugs {
		if b.Kind == core.KindInter {
			interBug = true
		}
	}
	if !interBug {
		t.Errorf("inter-thread data-loss bug (Bug 1) not found; bugs: %+v", res.Bugs)
	}
	// Bug 4: redundant writes reported as an Other finding.
	redundant := false
	for _, o := range res.DB.Others() {
		if o.Kind == "redundant-write" {
			redundant = true
		}
	}
	if !redundant {
		t.Errorf("redundant-write finding (Bug 4) missing; others: %+v", res.DB.Others())
	}
	if res.Counts.InterCandidates == 0 {
		t.Errorf("no inter candidates recorded")
	}
	if res.BranchCov == 0 || res.AliasCov == 0 {
		t.Errorf("coverage empty: branch=%d alias=%d", res.BranchCov, res.AliasCov)
	}
	if res.Execs != 60 {
		t.Errorf("execs = %d, want the full budget of 60", res.Execs)
	}
}

// TestWorkersStopAtMaxExecs checks that concurrent workers spend exactly the
// execution budget: each run reserves its slot before it starts, so four
// workers racing to the last slots cannot overshoot MaxExecs.
func TestWorkersStopAtMaxExecs(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loop")
	}
	for seed := int64(1); seed <= 3; seed++ {
		fz, err := New("pclht", Options{MaxExecs: 10, Duration: 60 * time.Second, Seed: seed, Workers: 4})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		col := obs.NewCollector()
		fz.SetEmitter(obs.NewEmitter(col))
		res, err := fz.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		done := 0
		for _, k := range col.Kinds() {
			if k == obs.KindExecDone {
				done++
			}
		}
		if res.Execs != 10 || done != 10 {
			t.Errorf("seed %d: Result.Execs = %d, exec_done events = %d; want 10 and 10", seed, res.Execs, done)
		}
	}
}

// TestCampaignMetricsMatchEvents runs a fixed-seed pclht campaign and checks
// one fact, one number: every event-derived registry series equals the count
// (or sum) of its typed events, and the Result and Stats views read the same
// registry counters.
func TestCampaignMetricsMatchEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loop")
	}
	fz, err := New("pclht", Options{
		Threads:    4,
		KeySpace:   12,
		OpsPerSeed: 40,
		MaxExecs:   60,
		Duration:   60 * time.Second,
		Seed:       7,
		Workers:    2,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	col := obs.NewCollector()
	fz.SetEmitter(obs.NewEmitter(col))
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var (
		execs, seeds, interleavings, verdicts, bugs int64
		incons, crashStates, branch, alias          int64
		final                                       obs.Stats
	)
	for _, ev := range col.Events() {
		switch v := ev.(type) {
		case *obs.ExecDone:
			execs++
			incons += int64(v.Inconsistencies + v.Syncs)
			branch = max(branch, int64(v.BranchCov))
			alias = max(alias, int64(v.AliasCov))
		case *obs.SeedAccepted:
			seeds++
		case *obs.InterleavingScheduled:
			interleavings++
		case *obs.ValidationVerdict:
			verdicts++
			crashStates += int64(v.CrashStates)
		case *obs.BugConfirmed:
			bugs++
		case *obs.CampaignDone:
			final = v.Stats
		}
	}
	reg := fz.Emitter().Registry()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{obs.MExecs, reg.Counter(obs.MExecs).Value(), execs},
		{"Result.Execs", int64(res.Execs), execs},
		{"Stats.Execs", int64(final.Execs), execs},
		{obs.HExecLatency, reg.Histogram(obs.HExecLatency).Count(), execs},
		{obs.MInconsistencies, reg.Counter(obs.MInconsistencies).Value(), incons},
		{obs.MBranchCov, reg.Gauge(obs.MBranchCov).Value(), branch},
		{"Result.BranchCov", int64(res.BranchCov), branch},
		{obs.MAliasCov, reg.Gauge(obs.MAliasCov).Value(), alias},
		{"Result.AliasCov", int64(res.AliasCov), alias},
		{obs.MSeedsAccepted, reg.Counter(obs.MSeedsAccepted).Value(), seeds},
		{obs.MInterleavings, reg.Counter(obs.MInterleavings).Value(), interleavings},
		{"Result.Interleavings", int64(res.Interleavings), interleavings},
		{"Stats.Interleavings", final.Interleavings, interleavings},
		{"Result.PrunedInterleavings", int64(res.PrunedInterleavings), reg.Counter(obs.MInterleavingsPruned).Value()},
		{"Stats.InterleavingsPruned", final.InterleavingsPruned, reg.Counter(obs.MInterleavingsPruned).Value()},
		{obs.MValidations, reg.Counter(obs.MValidations).Value(), verdicts},
		{"Stats.Validations", final.Validations, verdicts},
		{obs.HValidationLatency, reg.Histogram(obs.HValidationLatency).Count(), verdicts},
		{obs.MValidateCrashStates, reg.Counter(obs.MValidateCrashStates).Value(), crashStates},
		{obs.MBugs, reg.Counter(obs.MBugs).Value(), bugs},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Each bug_confirmed event is one finding judged a bug.
	var judgedBugs int64
	for _, j := range res.DB.Inconsistencies() {
		if j.Status == core.StatusBug {
			judgedBugs++
		}
	}
	for _, j := range res.DB.Syncs() {
		if j.Status == core.StatusBug {
			judgedBugs++
		}
	}
	if bugs == 0 || bugs != judgedBugs {
		t.Errorf("bug_confirmed events = %d, findings judged bugs = %d; want equal and > 0", bugs, judgedBugs)
	}
	if interleavings == 0 {
		t.Error("no interleaving was scheduled")
	}
}

func TestFuzzerDelayInjectionMode(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loop")
	}
	fz, err := New("pclht", Options{
		Mode:     ModeDelayInj,
		MaxExecs: 10,
		Duration: 30 * time.Second,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Mode != ModeDelayInj || res.Execs == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFuzzerUnknownTarget(t *testing.T) {
	if _, err := New("nope", Options{}); err == nil {
		t.Fatalf("unknown target must error")
	}
}

func TestModeStrings(t *testing.T) {
	if ModePMAware.String() != "PMRace" || ModeDelayInj.String() != "DelayInj" || ModeNone.String() != "None" {
		t.Fatalf("mode strings wrong")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ExploreMode
	}{
		{"", ModePMAware},
		{"pmrace", ModePMAware},
		{"pmaware", ModePMAware},
		{"delay", ModeDelayInj},
		{"none", ModeNone},
	} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseMode("chaotic"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	for _, m := range []ExploreMode{ModePMAware, ModeDelayInj, ModeNone} {
		if got, err := ParseMode(m.Spelling()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.Spelling(), got, err, m)
		}
	}
	if _, err := ParseMode(ExploreMode(7).Spelling()); err == nil {
		t.Error("an out-of-range mode spells as an accepted name")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Threads != 4 || o.Workers != 1 || o.MaxExecs == 0 {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestEADRSuppressesInterButNotSync reproduces the paper's §6.6 discussion:
// on an eADR platform (battery-backed caches) PM Inter-thread Inconsistency
// cannot occur, while PM Synchronization Inconsistency — never-released
// persistent locks — still does.
func TestEADRSuppressesInterButNotSync(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	fz, err := New("pclht", Options{
		MaxExecs: 30,
		Duration: 60 * time.Second,
		Seed:     7,
		EADR:     true,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Counts.InterCandidates != 0 || res.Counts.IntraCandidates != 0 {
		t.Errorf("eADR must eliminate dirty reads: %d inter, %d intra candidates",
			res.Counts.InterCandidates, res.Counts.IntraCandidates)
	}
	for _, b := range res.Bugs {
		if b.Kind == core.KindInter || b.Kind == core.KindIntra {
			t.Errorf("eADR must eliminate inconsistency bugs, got %+v", b)
		}
	}
	syncBug := false
	for _, b := range res.Bugs {
		if b.Kind == core.KindSync && b.VarName == "bucket-lock" {
			syncBug = true
		}
	}
	if !syncBug {
		t.Errorf("the execution-context bug must survive eADR: %+v", res.Bugs)
	}
}
