package fuzz

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// stubTarget is a minimal in-package target for engine unit tests.
type stubTarget struct {
	// dirtyShare makes Exec write and cross-read a shared word so the
	// detectors have something to find.
	dirtyShare bool
}

func (s *stubTarget) Name() string               { return "stub" }
func (s *stubTarget) PoolSize() uint64           { return 8 << 10 }
func (s *stubTarget) Annotations() int           { return 0 }
func (s *stubTarget) Setup(t *rt.Thread) error   { return nil }
func (s *stubTarget) Recover(t *rt.Thread) error { return nil }
func (s *stubTarget) Exec(t *rt.Thread, op workload.Op) error {
	t.Branch()
	if s.dirtyShare && op.Kind.Mutates() {
		t.Store64(64, targets.Fingerprint(op.Key), taint.None, taint.None)
	} else {
		v, lab := t.Load64(64)
		t.NTStore64(128, v, lab, taint.None)
	}
	return nil
}

func stubFactory(dirty bool) targets.Factory {
	return func() targets.Target { return &stubTarget{dirtyShare: dirty} }
}

func TestSkipBookkeeping(t *testing.T) {
	f := NewWithFactory(stubFactory(false), Options{})
	if got := f.skipFor(64); got != 0 {
		t.Fatalf("fresh skip = %d", got)
	}
	f.addSkip(64, 3)
	f.addSkip(64, 0) // clamps to at least 1
	if got := f.skipFor(64); got != 4 {
		t.Fatalf("skip = %d, want 4", got)
	}
	if got := f.skipFor(128); got != 0 {
		t.Fatalf("other address skip = %d", got)
	}
}

func TestBaseStrategyPerMode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewWithFactory(stubFactory(false), Options{Mode: ModeDelayInj})
	if _, ok := f.baseStrategy(rng).(*sched.DelayInjector); !ok {
		t.Fatalf("delay mode must use DelayInjector")
	}
	f2 := NewWithFactory(stubFactory(false), Options{Mode: ModePMAware})
	if _, ok := f2.baseStrategy(rng).(sched.None); !ok {
		t.Fatalf("pmaware mode uses None as base (interleaving tier adds PMAware)")
	}
}

func TestPickSeedDisabledSeedTierSticksToFirst(t *testing.T) {
	f := NewWithFactory(stubFactory(false), Options{DisableSeedTier: true})
	gen := workload.NewGenerator(1, 8, 2)
	f.corpus = []*workload.Seed{gen.NewSeed(4), gen.NewSeed(4)}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5; i++ {
		if got := f.pickSeed(rng); got != f.corpus[0] {
			t.Fatalf("disabled seed tier must always pick the first seed")
		}
	}
}

func TestPickSeedRoundRobin(t *testing.T) {
	f := NewWithFactory(stubFactory(false), Options{})
	gen := workload.NewGenerator(1, 8, 2)
	f.corpus = []*workload.Seed{gen.NewSeed(4), gen.NewSeed(4), gen.NewSeed(4)}
	rng := rand.New(rand.NewSource(2))
	a, b, c, d := f.pickSeed(rng), f.pickSeed(rng), f.pickSeed(rng), f.pickSeed(rng)
	if a != f.corpus[0] || b != f.corpus[1] || c != f.corpus[2] || d != f.corpus[0] {
		t.Fatalf("round robin broken")
	}
}

func TestRunOneMergesEverything(t *testing.T) {
	f := NewWithFactory(stubFactory(true), Options{MaxExecs: 10, Duration: 10 * time.Second})
	f.start = time.Now()
	seed := &workload.Seed{Threads: 2, Ops: []workload.Op{
		{Kind: workload.OpSet, Key: "a", Value: "1"},
		{Kind: workload.OpGet, Key: "a"},
		{Kind: workload.OpSet, Key: "b", Value: "2"},
		{Kind: workload.OpGet, Key: "b"},
	}}
	out, err := f.runOne(seed, sched.None{}, 0)
	if err != nil {
		t.Fatalf("runOne: %v", err)
	}
	if !out.improved {
		t.Fatalf("first execution must improve coverage")
	}
	if f.execs != 1 {
		t.Fatalf("execution accounting wrong: execs=%d", f.execs)
	}
	if len(f.stats) == 0 {
		t.Fatalf("stats not merged")
	}
	// Re-running the same seed should not improve coverage forever.
	for i := 0; i < 3; i++ {
		f.runOne(seed, sched.None{}, 0)
	}
	out, err = f.runOne(seed, sched.None{}, 0)
	if err != nil {
		t.Fatalf("runOne: %v", err)
	}
	if out.improved {
		t.Fatalf("identical executions must stop improving coverage")
	}
}

// TestRunOneCountsHangsByReason: a P-CLHT replace of an absent key leaks its
// bucket lock and the same thread's insert then hangs on it; the hang lands
// in the own-lock counter and in no other reason's.
func TestRunOneCountsHangsByReason(t *testing.T) {
	f := NewWithFactory(pclhtFactory(t), Options{MaxExecs: 1, Duration: 10 * time.Second})
	f.start = time.Now()
	if _, err := f.runOne(workload.Decode("replace k v\nset k v\n", 1), sched.None{}, 0); err != nil {
		t.Fatalf("runOne: %v", err)
	}
	reg := f.Emitter().Registry()
	for name, want := range map[string]int64{
		obs.MLockHangsOwnLock:   1,
		obs.MLockHangsCycle:     0,
		obs.MLockHangsDeadOwner: 0,
		obs.MLockHangsDeadline:  0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestValidationRunsOnDetection(t *testing.T) {
	// The stub's NT store based on a dirty read is an inconsistency; the
	// stub's recovery does nothing, so validation must mark it a bug.
	f := NewWithFactory(stubFactory(true), Options{MaxExecs: 4, Duration: 10 * time.Second})
	f.start = time.Now()
	seed := &workload.Seed{Threads: 2, Ops: []workload.Op{
		{Kind: workload.OpSet, Key: "a", Value: "1"},
		{Kind: workload.OpGet, Key: "a"},
		{Kind: workload.OpSet, Key: "b", Value: "2"},
		{Kind: workload.OpGet, Key: "b"},
	}}
	for i := 0; i < 4; i++ {
		if _, err := f.runOne(seed, sched.None{}, 0); err != nil {
			t.Fatalf("runOne: %v", err)
		}
	}
	for _, j := range f.db.Inconsistencies() {
		if j.Status == core.StatusPending {
			t.Fatalf("inconsistency left unvalidated: %+v", j)
		}
	}
}

func TestExecutorEADRPools(t *testing.T) {
	x := NewExecutor(stubFactory(true), ExecOptions{EADR: true, UseCheckpoints: true})
	seed := &workload.Seed{Threads: 2, Ops: []workload.Op{
		{Kind: workload.OpSet, Key: "a", Value: "1"},
		{Kind: workload.OpGet, Key: "a"},
	}}
	res, err := x.Run(seed, sched.None{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Candidates) != 0 {
		t.Fatalf("eADR execution must have no dirty-read candidates")
	}
}

// farTarget's one op stores word 64 without flushing, loads it back, makes
// 100 clean stores and then stores the loaded value to word 512: an
// intra-thread inconsistency whose dirty store lies far behind its side
// effect.
type farTarget struct{ stubTarget }

func (*farTarget) Exec(t *rt.Thread, op workload.Op) error {
	t.Store64(64, 7, taint.None, taint.None)
	v, lab := t.Load64(64)
	for i := pmem.Addr(0); i < 100; i++ {
		t.NTStore64(1024+8*i, i, taint.None, taint.None)
	}
	t.Store64(512, v, lab, taint.None)
	return nil
}

func TestCapturedTraceIsFindingInterleaving(t *testing.T) {
	x := NewExecutor(func() targets.Target { return &farTarget{} }, ExecOptions{})
	seed := &workload.Seed{Threads: 1, Ops: []workload.Op{{Kind: workload.OpSet, Key: "a", Value: "1"}}}
	res, err := x.Run(seed, sched.None{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Inconsistencies) != 1 || res.Inconsistencies[0].In.Kind != core.KindIntra {
		t.Fatalf("want one intra finding, got %+v", res.Inconsistencies)
	}
	c := res.Inconsistencies[0]
	want := []struct {
		kind string
		addr pmem.Addr
		site site.ID
	}{
		{"store", 64, site.ID(c.In.Event.WriteSite)},
		{"load", 64, site.ID(c.In.Event.ReadSite)},
		{"store", 512, c.In.StoreSite},
	}
	i := 0
	for _, a := range c.Trace {
		if i < len(want) && a.Kind.String() == want[i].kind && a.Addr == want[i].addr && a.Site == want[i].site {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("trace %+v lacks %+v, in order, from entry %d", c.Trace, want, i)
	}
}

func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gen := workload.NewGenerator(1, 8, 4)
	s1, s2 := gen.NewSeed(12), gen.HotKeySeed(8)
	if _, _, err := SaveSeed(dir, 0, s1); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Same requested number: exclusive creation skips forward instead of
	// clobbering (concurrent campaigns share corpus directories).
	if _, n, err := SaveSeed(dir, 0, s2); err != nil || n != 1 {
		t.Fatalf("save: n=%d err=%v, want n=1", n, err)
	}
	loaded, err := LoadCorpus(dir, 4)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d seeds, want 2", len(loaded))
	}
	if len(loaded[0].Ops) != len(s1.Ops) {
		t.Fatalf("seed 0 ops = %d, want %d", len(loaded[0].Ops), len(s1.Ops))
	}
}

func TestLoadCorpusMissingDir(t *testing.T) {
	seeds, err := LoadCorpus("/nonexistent/corpus/dir", 4)
	if err != nil || seeds != nil {
		t.Fatalf("missing dir must be empty, got %v %v", seeds, err)
	}
}

func TestFuzzerPersistsImprovingSeeds(t *testing.T) {
	dir := t.TempDir()
	fz := NewWithFactory(stubFactory(true), Options{
		MaxExecs: 6, Duration: 10 * time.Second, CorpusDir: dir,
	})
	if _, err := fz.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	loaded, err := LoadCorpus(dir, 4)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(loaded) == 0 {
		t.Fatalf("coverage-improving seeds must be persisted")
	}
}

// TestSaveSeedIdenticalCollisionIsSuccess: colliding with a corpus file
// that already holds the exact same seed reports success on the existing
// path instead of writing a redundant copy — the shared per-target corpus
// under pmraced needs only one copy of each input.
func TestSaveSeedIdenticalCollisionIsSuccess(t *testing.T) {
	dir := t.TempDir()
	gen := workload.NewGenerator(1, 8, 4)
	s := gen.NewSeed(12)
	path1, n1, err := SaveSeed(dir, 0, s)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	path2, n2, err := SaveSeed(dir, 0, s)
	if err != nil {
		t.Fatalf("identical re-save must succeed, got %v", err)
	}
	if path2 != path1 || n2 != n1 {
		t.Fatalf("identical re-save landed at %s (n=%d), want %s (n=%d)", path2, n2, path1, n1)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("corpus has %d files after duplicate save, want 1", len(ents))
	}
	// A different seed colliding on the same number still skips forward.
	if _, n3, err := SaveSeed(dir, 0, gen.HotKeySeed(8)); err != nil || n3 != 1 {
		t.Fatalf("differing seed: n=%d err=%v, want n=1", n3, err)
	}
}

// TestSharedCorpusIdenticalCampaigns runs the same deterministic campaign
// twice over one corpus directory (the pmraced shared per-target corpus):
// the second campaign re-derives the first's improving seeds, every save
// collides with an identical file, and none of that is an error — nor does
// it duplicate the corpus.
func TestSharedCorpusIdenticalCampaigns(t *testing.T) {
	dir := t.TempDir()
	run := func() *Fuzzer {
		fz := NewWithFactory(stubFactory(true), Options{
			MaxExecs: 6, Duration: 10 * time.Second, CorpusDir: dir, Seed: 5,
		})
		if _, err := fz.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return fz
	}
	f1 := run()
	after1, err := LoadCorpus(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2 := run()
	after2, err := LoadCorpus(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f1.corpusErr != nil || f2.corpusErr != nil {
		t.Fatalf("corpus errors: %v / %v", f1.corpusErr, f2.corpusErr)
	}
	if len(after1) == 0 {
		t.Fatalf("first campaign persisted no seeds")
	}
	if len(after2) != len(after1) {
		t.Fatalf("identical second campaign grew the corpus from %d to %d seeds", len(after1), len(after2))
	}
}

// A finished campaign's statistics stop aging: its elapsed time ends when
// the run does, so later snapshots report the same Elapsed and ExecsPerSec.
func TestFinishedCampaignStopsAging(t *testing.T) {
	f := NewWithFactory(stubFactory(false), Options{MaxExecs: 4, Workers: 1, Duration: 10 * time.Second})
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	a := f.Snapshot()
	time.Sleep(50 * time.Millisecond)
	b := f.Snapshot()
	if a.Elapsed <= 0 || a.Execs == 0 {
		t.Fatalf("finished campaign reports elapsed %v over %d executions", a.Elapsed, a.Execs)
	}
	if a.Elapsed != b.Elapsed || a.ExecsPerSec != b.ExecsPerSec {
		t.Fatalf("snapshots 50 ms apart differ: elapsed %v → %v, execs/s %v → %v",
			a.Elapsed, b.Elapsed, a.ExecsPerSec, b.ExecsPerSec)
	}
}
