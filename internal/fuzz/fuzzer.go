package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/validate"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// ExploreMode selects the interleaving exploration strategy.
type ExploreMode int

const (
	// ModePMAware is PMRace's exploration: priority-queue sync points
	// with cond_wait/cond_signal injection (paper §4.2.2).
	ModePMAware ExploreMode = iota
	// ModeDelayInj is the random delay-injection baseline (§6.1).
	ModeDelayInj
	// ModeNone runs under the Go scheduler alone.
	ModeNone
)

// modeSpellings names the modes as the -mode flag and the campaign spec's
// mode field write them: ParseMode accepts each name, Spelling returns it.
var modeSpellings = [...]string{ModePMAware: "pmrace", ModeDelayInj: "delay", ModeNone: "none"}

// ParseMode maps an exploration-mode spelling to its ExploreMode: "pmrace"
// (or its alias "pmaware", or "" for the default) is PMRace's PM-aware
// exploration, "delay" the delay-injection baseline, "none" the Go
// scheduler alone. Spellings are case-sensitive.
func ParseMode(s string) (ExploreMode, error) {
	if s == "" || s == "pmaware" {
		return ModePMAware, nil
	}
	for m, name := range modeSpellings {
		if s == name {
			return ExploreMode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want pmrace, delay or none)", s)
}

// Spelling returns the name ParseMode maps back to m. A mode outside the
// table spells as a name ParseMode rejects.
func (m ExploreMode) Spelling() string {
	if m >= 0 && int(m) < len(modeSpellings) {
		return modeSpellings[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

func (m ExploreMode) String() string {
	switch m {
	case ModePMAware:
		return "PMRace"
	case ModeDelayInj:
		return "DelayInj"
	default:
		return "None"
	}
}

const (
	// execsPerInterleaving is the execution-tier repetition count: each
	// seed, and each scheduled interleaving, runs this many times.
	execsPerInterleaving = 2
	// redundantThreshold is the dynamic-occurrence count above which a
	// redundant-store site is reported as an "Other" finding (incidental
	// same-value rewrites stay below it; P-CLHT's unnecessary migration
	// writes fire hundreds of times).
	redundantThreshold = 100
)

// Options configure a fuzzing run. Zero values select the evaluation's
// defaults (§6.1: 4 driver threads; simulation-scaled timings).
type Options struct {
	Threads    int
	KeySpace   int
	OpsPerSeed int
	// Workers is the number of concurrent fuzzing worker goroutines
	// (paper §5 "Concurrent Fuzzing"; the evaluation uses 13 worker
	// processes).
	Workers int
	Mode    ExploreMode
	// MaxExecs bounds the total number of executions; Duration bounds
	// wall-clock time. Whichever is hit first stops the run.
	MaxExecs int
	Duration time.Duration
	// Seed seeds all randomness for reproducibility.
	Seed int64
	// DisableInterleavingTier ablates interleaving-tier exploration
	// ("w/o IE", Figure 9).
	DisableInterleavingTier bool
	// DisableSeedTier ablates seed-tier exploration ("w/o SE", Figure 9).
	DisableSeedTier bool
	// NoCheckpoints disables the in-memory pool checkpoints (Figure 10).
	NoCheckpoints bool
	// MaxInterleavingsPerSeed bounds interleaving-tier entries per seed.
	MaxInterleavingsPerSeed int
	// ExtraWhitelist adds target-specific whitelist entries on top of the
	// default (mini-PMDK transactional allocation).
	ExtraWhitelist []string
	// Protocol switches the campaign to protocol-traffic mode: seeds are
	// recorded memcached text-protocol byte streams played through the
	// internal/wire front-end (one stream per connection), generated and
	// mutated by the protocol generator/mutator, with mid-request crash
	// points validated against the target's recovery code.
	Protocol bool
	// HangTimeout bounds lock acquisition per thread.
	HangTimeout time.Duration
	// EADR fuzzes against a platform with battery-backed caches (paper
	// §6.6): no store is ever non-persisted, so PM Inter-thread
	// Inconsistency cannot occur; PM Synchronization Inconsistency (and
	// its post-recovery hangs) remains.
	EADR bool
	// CorpusDir, when set, seeds the initial corpus from *.seed files in
	// the directory and persists coverage-improving seeds back into it
	// (the AFL++ queue-directory workflow the paper's artifact uses).
	CorpusDir string
	// ArtifactDir, when set, writes a forensic bundle (bug.json, seed,
	// schedule, PM trace and dirty-word diff) for every confirmed bug into
	// a numbered subdirectory; `pmrace -artifact <dir>` replays bundles.
	ArtifactDir string
	// ArtifactAll extends artifact writing to every deduplicated
	// inconsistency, including validated and whitelisted false positives.
	ArtifactAll bool
	// MaxCrashStates caps the crash states enumerated and validated per
	// finding (WITCHER-style bounded enumeration). Values <= 1 reproduce
	// the paper's single-adversarial-image validation.
	MaxCrashStates int
	// ValidationWallTimeout bounds each recovery run's wall-clock time in
	// post-failure validation; zero selects validate.DefaultWallTimeout.
	ValidationWallTimeout time.Duration
	// ValidationWorkers sizes the asynchronous post-failure validation
	// pool; findings queue to it instead of stalling the fuzzing executor
	// during recovery runs. Zero selects 2.
	ValidationWorkers int
	// InlineValidation validates findings synchronously on the fuzzing
	// worker that discovered them (the pre-pool behavior). It keeps the
	// event stream deterministic for a single-worker campaign, at the cost
	// of stalling that worker during recovery runs.
	InlineValidation bool
	// AliasHints seeds the interleaving queue with statically inferred
	// load/store alias pairs from `pmvet -alias`; entries covering a hint
	// are explored before any purely dynamically prioritized entry.
	AliasHints []AliasHint
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 16
	}
	if o.OpsPerSeed <= 0 {
		o.OpsPerSeed = 48
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxExecs <= 0 {
		o.MaxExecs = 200
	}
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	if o.MaxInterleavingsPerSeed <= 0 {
		o.MaxInterleavingsPerSeed = 6
	}
	if o.HangTimeout <= 0 {
		o.HangTimeout = 80 * time.Millisecond
	}
	if o.MaxCrashStates <= 0 {
		o.MaxCrashStates = 1
	}
	if o.ValidationWallTimeout <= 0 {
		o.ValidationWallTimeout = validate.DefaultWallTimeout
	}
	if o.ValidationWorkers <= 0 {
		o.ValidationWorkers = 2
	}
	return o
}

// Result aggregates a fuzzing run for the evaluation harness.
type Result struct {
	Target    string
	Mode      ExploreMode
	Execs     int
	Seeds     int
	Elapsed   time.Duration
	DB        *core.DB
	Counts    core.Counts
	Bugs      []core.UniqueBug
	BranchCov int
	AliasCov  int
	// ExecsPerSec is the average execution throughput (Figure 10).
	ExecsPerSec float64
	// Interleavings counts interleaving-tier entries actually scheduled;
	// PrunedInterleavings counts entries dropped by schedule-equivalence
	// pruning.
	Interleavings       int
	PrunedInterleavings int
}

// Fuzzer is PMRace's top-level fuzzing engine for one target.
type Fuzzer struct {
	factory    targets.Factory
	targetName string
	opts       Options
	exec       *Executor
	whitelist  *core.Whitelist
	artifacts  *artifact.Writer

	// ctx stops workers between executions when cancelled; set by
	// RunContext for the run's duration.
	ctx context.Context

	// valCh feeds the asynchronous post-failure validation pool; nil when
	// InlineValidation is set. Jobs own their crash states: the validating
	// worker recycles them only after the verdict is judged and any
	// artifact bundle is written.
	valCh  chan *valJob
	valWG  sync.WaitGroup
	valErr error // first validation-worker error; guarded by mu

	// em is the observability hub; every campaign has one (sink-less by
	// default). It derives the campaign's event metrics; mPruned counts
	// the one fuzzer fact that has no event.
	em      *obs.Emitter
	mPruned *obs.Counter

	// tr records lifecycle spans for sampled executions; nil (inert) unless
	// SetTracer attached one.
	tr *obs.Tracer

	// equiv is the campaign-global schedule-equivalence table; queued
	// interleavings whose class already ran without a novel outcome are
	// dropped instead of executed.
	equiv *sched.EquivClasses

	mu         sync.Mutex
	corpus     []*workload.Seed
	nextSeed   int
	cov        *cover.Coverage
	db         *core.DB
	skips      map[pmem.Addr]int // sync-point skip counts (Pitfall-3 bookkeeping)
	stats      map[pmem.Addr]*sched.AddrStats
	claimed    int // budget slots granted by claim; execs counts finished runs
	execs      int
	seedCount  int
	candSeen   map[[2]uint32]struct{}
	candInter  int
	candIntra  int
	hangExecs  map[string]int // executions that hung at a site
	savedSeeds int
	corpusErr  error
	mutator    Mutator
	start      time.Time
}

// New creates a fuzzer for a registered target name.
func New(targetName string, opts Options) (*Fuzzer, error) {
	if _, err := targets.New(targetName); err != nil {
		return nil, err
	}
	factory := func() targets.Target {
		t, err := targets.New(targetName)
		if err != nil {
			panic(err) // cannot happen: validated above
		}
		return t
	}
	return NewWithFactory(factory, opts), nil
}

// NewWithFactory creates a fuzzer from an explicit target factory.
func NewWithFactory(factory targets.Factory, opts Options) *Fuzzer {
	opts = opts.withDefaults()
	wl := core.NewWhitelist(pmdk.DefaultWhitelist()...)
	wl.Add(opts.ExtraWhitelist...)
	var mut Mutator
	if opts.Protocol {
		mut = NewProtoMutator(opts.Seed, opts.KeySpace, opts.Threads)
	} else {
		mut = NewOpMutator(opts.KeySpace, opts.Threads, opts.OpsPerSeed)
	}
	f := &Fuzzer{
		factory:    factory,
		targetName: factory().Name(),
		opts:       opts,
		exec: NewExecutor(factory, ExecOptions{
			HangTimeout:    opts.HangTimeout,
			UseCheckpoints: !opts.NoCheckpoints,
			CollectStats:   true,
			EADR:           opts.EADR,
			MaxCrashStates: opts.MaxCrashStates,
		}),
		whitelist: wl,
		cov:       cover.New(),
		db:        core.NewDB(),
		skips:     make(map[pmem.Addr]int),
		stats:     make(map[pmem.Addr]*sched.AddrStats),
		hangExecs: make(map[string]int),
		candSeen:  make(map[[2]uint32]struct{}),
		mutator:   mut,
		equiv:     sched.NewEquivClasses(),
	}
	// Known-fingerprint predicates let the executor skip forensic capture
	// (crash states, PM diff, trace) for findings the dedup DB already
	// holds — the merge would discard that work unread.
	f.exec.opts.KnownInconsistency = f.db.HasInconsistency
	f.exec.opts.KnownSync = f.db.HasSync
	f.SetEmitter(obs.NewEmitter())
	return f
}

// SetEmitter replaces the campaign's observability emitter and rewires the
// producer layers (executor, detection DB, pruned-interleaving counter) to
// it. Call before Run; the campaign session API uses this to attach the
// caller's sinks and event channel.
func (f *Fuzzer) SetEmitter(em *obs.Emitter) {
	f.em = em
	f.exec.SetEmitter(em)
	f.db.SetEmitter(em)
	f.mPruned = em.Registry().Counter(obs.MInterleavingsPruned)
}

// Emitter returns the campaign's observability emitter.
func (f *Fuzzer) Emitter() *obs.Emitter { return f.em }

// SetTracer attaches a span tracer to the campaign and its executor. Call
// before Run; without one, tracing stays inert (nil-tracer no-ops).
func (f *Fuzzer) SetTracer(tr *obs.Tracer) {
	f.tr = tr
	f.exec.SetTracer(tr)
}

// Tracer returns the campaign's span tracer, nil when tracing is disabled.
func (f *Fuzzer) Tracer() *obs.Tracer { return f.tr }

// ArtifactDir returns the campaign's bundle directory, "" without one.
func (f *Fuzzer) ArtifactDir() string { return f.opts.ArtifactDir }

// Run executes the fuzzing loop until the execution or time budget is
// exhausted and returns the aggregated result.
func (f *Fuzzer) Run() (*Result, error) { return f.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: when ctx is cancelled,
// every worker stops at its next inter-execution check (within one
// execution) and the partial Result accumulated so far is returned without
// error — cancellation is a normal way to end a campaign, like exhausting
// the budget.
func (f *Fuzzer) RunContext(ctx context.Context) (*Result, error) {
	// Snapshot may run concurrently from the first instant, so even the
	// setup writes take the fuzzer lock.
	f.mu.Lock()
	f.ctx = ctx
	f.start = time.Now()
	f.mu.Unlock()
	csp := f.tr.Start(obs.LaneSupervisor, obs.SpanCampaign)
	csp.SetAttr("target", f.targetName)
	csp.SetAttr("mode", f.opts.Mode.String())
	defer csp.End()
	f.em.Emit(&obs.PhaseChange{Phase: "fuzzing", Prev: "init"})
	if f.opts.ArtifactDir != "" && f.artifacts == nil {
		w, err := artifact.NewWriter(f.opts.ArtifactDir)
		if err != nil {
			return nil, err
		}
		f.artifacts = w
	}
	if f.opts.ArtifactAll && f.artifacts == nil {
		return nil, fmt.Errorf("fuzz: ArtifactAll requires an artifact directory (set ArtifactDir)")
	}
	// The initial corpus combines a random mixed-operation seed, a
	// populate-heavy seed (the load phase with many insertions triggers
	// the resizing mechanisms of PM key-value stores and indexes) and a
	// hot-key read-modify-write seed (similar keys maximize shared PM
	// accesses and arm the read-after-write sync points) — §4.5. Protocol
	// mode seeds the analogous byte-stream shapes: a zipfian traffic mix, a
	// connection-churn seed, and a hot-key pipelined-burst seed.
	var initial []*workload.Seed
	if f.opts.Protocol {
		pg := workload.NewProtoGen(f.opts.Seed, f.opts.KeySpace, f.opts.Threads)
		cmds := max(f.opts.OpsPerSeed/2, 8)
		initial = []*workload.Seed{
			pg.MixSeed(f.opts.Threads*2, cmds),
			pg.ChurnSeed(f.opts.Threads * 4),
			pg.HotSeed(f.opts.Threads*2, cmds),
		}
	} else {
		gen := workload.NewGenerator(f.opts.Seed, f.opts.KeySpace, f.opts.Threads)
		initial = []*workload.Seed{
			gen.NewSeed(f.opts.OpsPerSeed),
			gen.PopulationSeed(f.opts.OpsPerSeed * 2),
			gen.HotKeySeed(f.opts.OpsPerSeed),
		}
	}
	f.mu.Lock()
	f.corpus = initial
	f.mu.Unlock()
	for _, s := range initial {
		f.em.Emit(&obs.SeedAccepted{Origin: "initial", Ops: s.Size(), CorpusSize: len(initial)})
	}
	corpusLen := len(initial)
	if f.opts.CorpusDir != "" {
		loaded, err := LoadCorpus(f.opts.CorpusDir, f.opts.Threads)
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.corpus = append(f.corpus, loaded...)
		corpusLen = len(f.corpus)
		f.mu.Unlock()
		for _, s := range loaded {
			f.em.Emit(&obs.SeedAccepted{Origin: "corpus-dir", Ops: s.Size(), CorpusSize: corpusLen})
		}
	}
	f.mu.Lock()
	f.seedCount = corpusLen
	f.mu.Unlock()

	// Post-failure validation pool: findings queue here so recovery runs
	// (each bounded by ValidationWallTimeout, and potentially multiplied by
	// MaxCrashStates) never stall the fuzzing executors. A worker that hits
	// a persistent error (artifact I/O) records it and keeps draining so
	// enqueuers never block on a dead pool.
	if !f.opts.InlineValidation {
		f.valCh = make(chan *valJob, f.opts.ValidationWorkers*4)
		for i := 0; i < f.opts.ValidationWorkers; i++ {
			f.valWG.Add(1)
			go func(i int) {
				defer f.valWG.Done()
				for job := range f.valCh {
					if err := f.validateJob(job, obs.LaneValidatorBase+i); err != nil {
						f.mu.Lock()
						if f.valErr == nil {
							f.valErr = err
						}
						f.mu.Unlock()
					}
				}
			}(i)
		}
	}

	// Each worker owns a private seeded RNG: nothing on the hot path ever
	// touches the locked global math/rand source, and a campaign at a given
	// (seed, worker count) draws the same per-worker random streams even
	// though cross-worker interleaving stays nondeterministic.
	var wg sync.WaitGroup
	errCh := make(chan error, f.opts.Workers)
	for w := 0; w < f.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(f.opts.Seed + int64(w)*7919))
			for !f.done() {
				if err := f.seedCampaign(rng, w); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain the validation pool before reading results: queued findings
	// must be judged (and their artifacts written) before the campaign's
	// bug tally is final.
	if f.valCh != nil {
		close(f.valCh)
		f.valWG.Wait()
	}
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	f.mu.Lock()
	valErr := f.valErr
	f.mu.Unlock()
	if valErr != nil {
		return nil, valErr
	}
	res := f.result()
	f.em.Emit(&obs.PhaseChange{Phase: "done", Prev: "fuzzing"})
	f.em.Emit(&obs.CampaignDone{Stats: f.Snapshot()})
	return res, nil
}

func (f *Fuzzer) done() bool {
	if f.ctx != nil && f.ctx.Err() != nil {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.doneLocked()
}

func (f *Fuzzer) doneLocked() bool {
	return f.claimed >= f.opts.MaxExecs || time.Since(f.start) >= f.opts.Duration
}

// claim reserves one execution of the budget, reporting false once the
// campaign is done. Reserving before the run keeps concurrent workers from
// overshooting MaxExecs: each run holds its slot while it executes.
func (f *Fuzzer) claim() bool {
	if f.ctx != nil && f.ctx.Err() != nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.doneLocked() {
		return false
	}
	f.claimed++
	return true
}

// seedCampaign runs one seed-tier iteration: pick or evolve a seed, run the
// execution tier, then walk the priority queue for interleaving-tier
// exploration (paper §4.2.3).
func (f *Fuzzer) seedCampaign(rng *rand.Rand, worker int) error {
	ssp := f.tr.Start(f.traceLane(worker), obs.SpanSeedPick)
	seed := f.pickSeed(rng)
	ssp.SetAttr("ops", strconv.Itoa(seed.Size()))
	ssp.End()

	// Execution tier: base executions collecting coverage and the shared
	// PM access statistics that feed the priority queue.
	improved := false
	for i := 0; i < execsPerInterleaving && f.claim(); i++ {
		out, err := f.runOne(seed, f.baseStrategy(rng), worker)
		if err != nil {
			return err
		}
		improved = improved || out.improved
	}

	// Interleaving tier: drive executions towards reading non-persisted
	// data at hot shared addresses. Pruned entries do not count against
	// the per-seed budget — the loop keeps popping so the budget is spent
	// on interleavings that actually run.
	if f.opts.Mode == ModePMAware && !f.opts.DisableInterleavingTier {
		queue := f.buildQueue()
		scheduled := 0
		for scheduled < f.opts.MaxInterleavingsPerSeed && !f.done() {
			// The interleaving span covers the decision — queue pop,
			// equivalence-pruning check, schedule choice — not the
			// executions it leads to, which record their own spans.
			isp := f.tr.Start(f.traceLane(worker), obs.SpanInterleaving)
			entry := queue.Pop()
			if entry == nil {
				isp.End()
				break
			}
			skip := f.skipFor(entry.Addr)
			key := sched.EntrySignature(entry, skip)
			isp.SetAttr("entry", entry.Describe())
			isp.SetAttr("skip", strconv.Itoa(skip))
			if f.equiv.ShouldPrune(key) {
				isp.SetAttr("pruned", "true")
				isp.End()
				f.mPruned.Inc()
				continue
			}
			isp.End()
			scheduled++
			f.em.Emit(&obs.InterleavingScheduled{
				Worker:   worker,
				Addr:     uint64(entry.Addr),
				Priority: entry.Priority,
				Skip:     skip,
			})
			productive, ran := false, 0
			for e := 0; e < execsPerInterleaving && f.claim(); e++ {
				cfg := sched.DefaultConfig()
				cfg.Seed = rng.Int63()
				pm := sched.NewPMAware(cfg, entry, f.skipFor(entry.Addr))
				out, err := f.runOne(seed, pm, worker)
				if err != nil {
					return err
				}
				ran++
				improved = improved || out.improved
				// A round earns another visit only when it moved
				// the campaign: an unseen outcome signature that
				// also grew global coverage, or a finding the
				// dedup DB had not recorded. Signature novelty
				// alone is not enough — racy allocation order
				// makes chaotic classes produce a fresh dirty
				// set every run, and treating that as progress
				// disables pruning exactly where the schedules
				// are the most expensive (blocked cond_wait
				// windows).
				novel := f.equiv.OutcomeNovel(out.sig)
				if (novel && out.improved) || out.found {
					productive = true
				}
				if o := pm.Outcome(); o.Disabled {
					// Pitfall-3: save an increased skip so
					// future campaigns on this seed bypass
					// the blocking cond_wait executions.
					f.addSkip(entry.Addr, o.CondWaits)
				}
			}
			// A round cut short by the budget before any execution
			// must not mark its class stale.
			if ran > 0 {
				f.equiv.Record(key, productive)
			}
		}
	}

	if improved {
		f.saveCorpusSeed(seed)
		f.mu.Lock()
		corpusLen := len(f.corpus)
		f.mu.Unlock()
		f.em.Emit(&obs.SeedAccepted{Origin: "improving", Ops: seed.Size(), CorpusSize: corpusLen})
	}

	// Seed tier: evolve the corpus when this seed stopped helping.
	f.mu.Lock()
	defer f.mu.Unlock()
	if om, ok := f.mutator.(*OpMutator); ok {
		if improved {
			om.MarkProgress()
		} else {
			om.MarkStale()
		}
	}
	if !f.opts.DisableSeedTier {
		next := f.mutator.Mutate(rng, f.corpus)
		f.corpus = append(f.corpus, next)
		f.seedCount++
		if len(f.corpus) > 32 { // bounded corpus, oldest evicted
			f.corpus = f.corpus[1:]
		}
	}
	return nil
}

func (f *Fuzzer) baseStrategy(rng *rand.Rand) sched.Strategy {
	if f.opts.Mode == ModeDelayInj {
		return sched.NewDelayInjector(0, rng.Int63())
	}
	return sched.None{}
}

func (f *Fuzzer) pickSeed(rng *rand.Rand) *workload.Seed {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.opts.DisableSeedTier {
		return f.corpus[0]
	}
	s := f.corpus[f.nextSeed%len(f.corpus)]
	f.nextSeed++
	return s
}

func (f *Fuzzer) buildQueue() *sched.Queue {
	f.mu.Lock()
	defer f.mu.Unlock()
	q := sched.BuildQueue(f.stats)
	f.applyAliasHints(q)
	return q
}

func (f *Fuzzer) skipFor(addr pmem.Addr) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.skips[addr]
}

func (f *Fuzzer) addSkip(addr pmem.Addr, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 1 {
		n = 1
	}
	f.skips[addr] += n
}

// runOutcome summarizes one execution for the tiers: whether coverage
// improved, the outcome signature for equivalence pruning, and whether the
// execution detected at least one inconsistency.
type runOutcome struct {
	improved bool
	sig      sched.OutcomeSig
	found    bool
}

// traceLane returns the span lane for one of worker's executions when the
// tracer samples it, -1 (inert) otherwise.
func (f *Fuzzer) traceLane(worker int) int {
	if f.tr.Sample() {
		return obs.LaneWorkerBase + worker
	}
	return -1
}

// runOne executes the seed once, validates new findings post-failure, and
// merges everything into the global state.
func (f *Fuzzer) runOne(seed *workload.Seed, strat sched.Strategy, worker int) (runOutcome, error) {
	res, err := f.exec.RunTraced(seed, strat, f.traceLane(worker))
	if err != nil {
		return runOutcome{}, err
	}

	// Post-failure stage: merge findings under the lock, then hand each
	// *new* finding — together with ownership of its crash states — to the
	// validation pool (or validate inline). Duplicate findings never
	// consult their states, so those go straight back to the buffer pool;
	// a job's states are recycled by whoever validates it, only after the
	// verdict is judged and any artifact bundle is written.
	var jobs []*valJob
	var recycle [][]pmem.CrashState
	f.mu.Lock()
	// newFindings counts findings unseen by the dedup DB. It — not raw
	// detections — feeds the equivalence table's bug latch: the seeded
	// targets re-detect their known bugs on nearly every execution, and
	// pinning a class for duplicates would disable pruning entirely. A
	// class becomes prunable only after its bug is already in the DB.
	for _, cap := range res.Inconsistencies {
		j, isNew := f.db.MergeInconsistency(cap.In)
		if isNew {
			// Snapshot the finding before leaving the lock: the DB
			// keeps cap.In as the canonical record and bumps its
			// dedup count on later duplicates, concurrently with
			// the validation worker reading it.
			in := *cap.In
			jobs = append(jobs, &valJob{in: &in, j: j, states: cap.States, trace: cap.Trace, dirty: cap.Dirty})
		} else {
			recycle = append(recycle, cap.States)
		}
	}
	for _, cap := range res.Syncs {
		j, isNew := f.db.MergeSync(cap.Si)
		if isNew {
			si := *cap.Si
			jobs = append(jobs, &valJob{si: &si, js: j, states: cap.States, trace: cap.Trace, dirty: cap.Dirty})
		} else {
			recycle = append(recycle, cap.States)
		}
	}
	newFindings := len(jobs)
	f.mu.Unlock()
	for _, states := range recycle {
		pmem.RecycleStates(states)
	}
	if len(jobs) > 0 {
		enc := seed.Encode()
		sd := describeStrategy(strat)
		for _, job := range jobs {
			job.seed = enc
			job.sd = sd
			if f.valCh != nil {
				f.valCh <- job
			} else if err := f.validateJob(job, obs.LaneValidatorBase+worker); err != nil {
				return runOutcome{}, err
			}
		}
	}

	f.mu.Lock()
	hungThisExec := map[string]bool{}
	for _, h := range res.Hangs {
		hungThisExec[h.Site] = true
	}
	for s := range hungThisExec {
		f.hangExecs[s]++
		// Reported as a finding only when the hang recurs: a leaked lock
		// (a missing-unlock bug) hangs execution after execution, while
		// a one-off stall is scheduler starvation on loaded machines.
		// One unique finding per run: hangs at many acquire sites share
		// one root cause.
		if f.hangExecs[s] >= 3 {
			f.db.AddOther(core.OtherFinding{
				Kind:        "hang",
				Site:        site.Named("pre-failure hang"),
				Description: fmt.Sprintf("threads repeatedly hung acquiring locks (e.g. at %s)", s),
			})
		}
	}
	for _, msg := range res.CrashFailures {
		// A mid-request crash image whose recovery replay failed is a
		// durability bug in its own right, independent of any detected
		// race (the request was parsed but its commit tore).
		f.db.AddOther(core.OtherFinding{
			Kind:        "crash-recovery",
			Site:        site.Named("protocol crash point"),
			Description: msg,
		})
	}
	for _, r := range res.Redundant {
		if r.Count >= redundantThreshold {
			loc := site.Lookup(r.Site).String()
			f.db.AddOther(core.OtherFinding{
				Kind:        "redundant-write",
				Site:        r.Site,
				Description: fmt.Sprintf("redundant PM writes at %s (%d occurrences)", loc, r.Count),
			})
		}
	}
	for _, c := range res.Candidates {
		key := [2]uint32{c.Event.WriteSite, c.Event.ReadSite}
		if _, seen := f.candSeen[key]; seen {
			continue
		}
		f.candSeen[key] = struct{}{}
		if c.Inter() {
			f.candInter++
		} else {
			f.candIntra++
		}
	}
	for addr, st := range res.Stats {
		agg, ok := f.stats[addr]
		if !ok {
			agg = sched.NewAddrStats()
			f.stats[addr] = agg
		}
		agg.Merge(st)
	}
	newBits := f.cov.Merge(res.Coverage)
	f.execs++
	execNo := f.execs
	br, al := f.cov.Counts()
	f.mu.Unlock()

	f.em.Emit(&obs.ExecDone{
		Exec:            execNo,
		Worker:          worker,
		NewBits:         newBits,
		BranchCov:       br,
		AliasCov:        al,
		Candidates:      len(res.Candidates),
		Inconsistencies: len(res.Inconsistencies),
		Syncs:           len(res.Syncs),
		Duration:        res.Duration,
	})
	// Anomaly triggers: a hang-watchdog trip or an execution beyond the
	// campaign's p99.9 latency dumps the flight recorder (rate-limited, and
	// only once the histogram has enough mass to make p99.9 meaningful).
	if f.tr.Enabled() {
		if len(res.Hangs) > 0 {
			f.tr.DumpAnomaly("exec_hang")
		}
		if h := f.em.Registry().Histogram(obs.HExecLatency); h.Count() >= 256 {
			if p := h.Quantile(0.999); p > 0 && res.Duration > p {
				f.tr.DumpAnomaly("exec_latency_p999")
			}
		}
	}
	return runOutcome{
		improved: newBits > 0,
		sig:      res.Signature,
		found:    newFindings > 0,
	}, nil
}

// valJob is one finding queued for post-failure validation. Exactly one of
// (in, j) or (si, js) is set. The job owns states: validateJob recycles them.
type valJob struct {
	in *core.Inconsistency
	j  *core.JudgedInconsistency
	si *core.SyncInconsistency
	js *core.JudgedSync

	states []pmem.CrashState
	trace  []core.Access
	dirty  []pmem.DirtyWord
	seed   string
	sd     artifact.Schedule
}

// validateJob runs post-failure validation for one finding, records the
// verdict in the result database, writes the forensic artifact bundle when
// warranted, and finally recycles the job's crash states — the ownership
// hand-off that keeps images out of the buffer pool while validation or
// artifact serialization still aliases them. lane is the validator's span
// lane (validation spans are always-on when tracing is enabled: findings
// are rare).
func (f *Fuzzer) validateJob(job *valJob, lane int) error {
	defer pmem.RecycleStates(job.states)
	vopts := validate.Options{
		HangTimeout: f.opts.HangTimeout,
		WallTimeout: f.opts.ValidationWallTimeout,
		Whitelist:   f.whitelist,
		Obs:         f.em,
		Trace:       f.tr,
		TraceLane:   lane,
	}
	var r validate.Result
	if job.in != nil {
		r = validate.Inconsistency(f.factory, job.states, job.in, vopts)
		f.db.Judge(job.j, r.Status)
	} else {
		r = validate.Sync(f.factory, job.states, job.si, vopts)
		f.db.JudgeSync(job.js, r.Status)
	}
	// Forensic artifact bundles: every confirmed bug (every judged finding
	// with ArtifactAll) becomes a self-contained replayable directory.
	if f.artifacts == nil || (r.Status != core.StatusBug && !f.opts.ArtifactAll) {
		return nil
	}
	var bug artifact.Report
	if job.in != nil {
		bug = artifact.FromInconsistency(f.targetName, f.opts.Threads, job.in, r.Status, artifactValidation(r))
	} else {
		bug = artifact.FromSync(f.targetName, f.opts.Threads, job.si, r.Status, artifactValidation(r))
	}
	// The bundle carries the flight recorder's last-N spans at write time:
	// the wall-clock timeline leading up to the confirmed bug.
	dir, err := f.artifacts.Write(&artifact.Bundle{
		Bug:      bug,
		Seed:     job.seed,
		Schedule: job.sd,
		Trace:    artifact.ConvertTrace(job.trace),
		PMDiff:   artifact.ConvertDirty(job.dirty),
		Spans:    f.tr.Spans(),
	})
	if err == nil && dir != "" {
		// Exemplar: link the latency distributions to the concrete bundle
		// that exhibited this validation.
		label := filepath.Base(dir)
		f.em.Registry().Histogram(obs.HValidationLatency).SetExemplar(label, r.Latency)
		if f.tr.Enabled() {
			f.em.Registry().Histogram(obs.SpanHistName(obs.SpanValidate)).SetExemplar(label, r.Latency)
		}
	}
	return err
}

// artifactValidation converts a validation result, including the per-state
// verdict table, into its artifact JSON form.
func artifactValidation(r validate.Result) artifact.Validation {
	v := artifact.Validation{Latency: r.Latency, RecoveryHung: r.RecoveryHung}
	for _, s := range r.States {
		sv := artifact.StateVerdict{
			State:        s.State,
			Status:       s.Status.String(),
			RecoveryHung: s.RecoveryHung,
			WallTimeout:  s.WallTimeout,
			LatencyMs:    float64(s.Latency.Microseconds()) / 1e3,
		}
		if s.RecoveryErr != nil {
			sv.RecoveryErr = s.RecoveryErr.Error()
		}
		v.States = append(v.States, sv)
	}
	return v
}

// aggregates reads the statistics Result and Snapshot share, plus the
// verdict tally, under one acquisition of the fuzzer lock.
func (f *Fuzzer) aggregates() (obs.Stats, core.Counts) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.db.Tally()
	// Candidates are deduplicated across executions in runOne; the DB only
	// holds confirmed inconsistencies.
	c.InterCandidates, c.IntraCandidates = f.candInter, f.candIntra
	reg := f.em.Registry()
	st := obs.Stats{
		Target:              f.targetName,
		Mode:                f.opts.Mode.String(),
		Execs:               f.execs,
		Seeds:               f.seedCount,
		Inconsistencies:     c.Inter + c.Intra + c.Sync,
		Bugs:                c.InterBugs + c.IntraBugs + c.SyncBugs,
		Interleavings:       reg.Counter(obs.MInterleavings).Value(),
		InterleavingsPruned: reg.Counter(obs.MInterleavingsPruned).Value(),
		CheckpointRestores:  reg.Counter(obs.MCheckpointRestores).Value(),
		Validations:         reg.Counter(obs.MValidations).Value(),
		EventsDropped:       f.em.Dropped(),
	}
	st.BranchCov, st.AliasCov = f.cov.Counts()
	if !f.start.IsZero() {
		st.Elapsed = time.Since(f.start)
	}
	if st.Elapsed > 0 {
		st.ExecsPerSec = float64(st.Execs) / st.Elapsed.Seconds()
	}
	return st, c
}

func (f *Fuzzer) result() *Result {
	st, c := f.aggregates()
	return &Result{
		Target:              f.targetName,
		Mode:                f.opts.Mode,
		Execs:               st.Execs,
		Seeds:               st.Seeds,
		Elapsed:             st.Elapsed,
		DB:                  f.db,
		Counts:              c,
		Bugs:                f.db.UniqueBugs(),
		BranchCov:           st.BranchCov,
		AliasCov:            st.AliasCov,
		ExecsPerSec:         st.ExecsPerSec,
		Interleavings:       int(st.Interleavings),
		PrunedInterleavings: int(st.InterleavingsPruned),
	}
}

// Snapshot returns a live point-in-time statistics view of the campaign.
// It is safe to call concurrently with Run; after Run returns, the numbers
// equal the final Result's aggregates (and the terminal CampaignDone event
// carries exactly this snapshot).
func (f *Fuzzer) Snapshot() obs.Stats {
	st, _ := f.aggregates()
	return st
}
