package fuzz

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// CapturedInconsistency pairs a detected inconsistency with the crash states
// enumerated at the crash point. States[0] is always the §4.4 adversarial
// image (durable side effect force-persisted, dependent dirty data lost);
// with multi-state validation enabled the list also carries the persisted
// baseline and per-pending-line states (pmem.CrashStates).
type CapturedInconsistency struct {
	In     *core.Inconsistency
	States []pmem.CrashState
	// Trace is the finding's interleaving (In.Interleaving) and Dirty the
	// pool's dirty-word diff at detection — the forensic state artifact
	// bundles persist.
	Trace []core.Access
	Dirty []pmem.DirtyWord
}

// CapturedSync is the synchronization-variable analogue.
type CapturedSync struct {
	Si     *core.SyncInconsistency
	States []pmem.CrashState
	Trace  []core.Access
	Dirty  []pmem.DirtyWord
}

// ExecResult is everything one execution of a seed produced.
type ExecResult struct {
	Candidates      []*core.Candidate
	Inconsistencies []CapturedInconsistency
	Syncs           []CapturedSync
	Redundant       []*core.RedundantStore
	Hangs           []rt.HangReport
	Coverage        *cover.Coverage
	// Stats is the execution's per-address access statistics (nil when
	// not collected). The result owns them: nothing else references them.
	Stats   map[pmem.Addr]*sched.AddrStats
	Outcome *sched.Outcome // set when the PM-aware strategy ran
	// Signature is the execution's outcome fingerprint (alias-coverage
	// hash, dirty-word set hash); the fuzzer's interleaving-equivalence
	// pruning keys on it.
	Signature     sched.OutcomeSig
	Duration      time.Duration
	SetupDuration time.Duration
	ExecErrors    int
	// CrashPoints are the persisted states captured at a protocol seed's
	// mid-request crash points (between parse and PM commit); Run drops
	// them once their recovery is checked, so a returned result holds none.
	// CrashFailures reports those whose recovery replay hung, errored,
	// panicked or timed out.
	CrashPoints   []pmem.CrashState
	CrashFailures []string
	// Input is the seed's encoding, made once by the first captured
	// finding (empty when none was captured). Every finding new to the
	// campaign is captured, so its validation job reuses this string.
	Input string
}

// maxDirtyWords bounds the PM-state diff captured per detection; a resize in
// flight can leave thousands of dirty words, and the first few hundred are
// evidence enough.
const maxDirtyWords = 256

// ExecOptions configure the campaign executor.
type ExecOptions struct {
	// UseCheckpoints enables the in-memory pool checkpoint: the pool is
	// initialized once, snapshotted, and every execution starts from a
	// restored copy plus the target's (cheap) recovery, replacing the
	// expensive Setup — the fork-server substitute of paper §5.
	UseCheckpoints bool
	// CollectStats enables per-address access statistics (off for pure
	// input-generation runs, which the paper decouples from interleaving
	// exploration for speed).
	CollectStats bool
	// EADR models battery-backed caches (paper §6.6): stores are durable
	// at visibility, so inter-thread inconsistencies cannot occur while
	// synchronization inconsistencies still can.
	EADR bool
	// MaxCrashStates caps the crash states enumerated per finding; values
	// <= 1 reproduce the paper's single adversarial image.
	MaxCrashStates int
	// KnownInconsistency and KnownSync, when set, report whether a finding
	// fingerprint is already in the campaign's dedup database. Run then
	// skips the forensic capture — call stack, crash-state enumeration,
	// PM diff and interleaving — for duplicates, which the merge would
	// recycle unread.
	// The predicates may only ever turn false→true (the database grows
	// monotonically), so a stale answer costs one redundant capture, never
	// a lost one.
	KnownInconsistency func([3]uint32) bool
	KnownSync          func(*core.SyncInconsistency) bool
}

// Executor runs fuzz campaign executions against one target.
type Executor struct {
	factory targets.Factory
	opts    ExecOptions

	// mRestores counts checkpoint restores; nil (no-op) until SetEmitter.
	mRestores *obs.Counter

	// tr records execution spans for sampled runs; nil (no-op) until
	// SetTracer.
	tr *obs.Tracer

	snapMu sync.Mutex
	// snap is the checkpoint new execution pools start from: the one this
	// executor built, or the base of the first pool it drew from pools.
	snap atomic.Pointer[pmem.Snapshot]

	// pools is the free list of checkpoint pools: a recycled pool is
	// restored to the snapshot it is based on, copying only the lines the
	// previous execution dirtied, and skips the allocation entirely.
	// Executors of one registered target share a process-wide list
	// (targetPools), so a later campaign skips Setup and the snapshot copy.
	pools *sync.Pool
}

// poolKey names a process-wide free list of execution pools: a registered
// target and the platform its pools model.
type poolKey struct {
	target string
	eadr   bool
}

// sharedPools maps each poolKey to its free list. The keys are registered
// target names only, so the map stays small; the lists are sync.Pools, so
// the GC frees idle execution pools and, with them, their snapshots.
var sharedPools sync.Map

// targetPools returns the free list shared by the executors of a registered
// target. Only a registry name identifies a target's Setup: Target.Name
// does not (pmwal's fixed variant reports "pmwal" too), and an explicit
// factory may be anything, so NewExecutor and NewWithFactory keep a list
// of their own.
func targetPools(name string, eadr bool) *sync.Pool {
	k := poolKey{name, eadr}
	if v, ok := sharedPools.Load(k); ok {
		return v.(*sync.Pool)
	}
	v, _ := sharedPools.LoadOrStore(k, new(sync.Pool))
	return v.(*sync.Pool)
}

// NewExecutor creates an executor for the target factory. Its execution
// pools are its own.
func NewExecutor(factory targets.Factory, opts ExecOptions) *Executor {
	return newExecutor(factory, opts, new(sync.Pool))
}

// NewTargetExecutor creates an executor for a registered target. It draws
// execution pools from, and returns them to, the free list every executor
// of that target and platform in the process shares.
func NewTargetExecutor(name string, opts ExecOptions) (*Executor, error) {
	factory, err := targets.Lookup(name)
	if err != nil {
		return nil, err
	}
	return newExecutor(factory, opts, targetPools(name, opts.EADR)), nil
}

func newExecutor(factory targets.Factory, opts ExecOptions, pools *sync.Pool) *Executor {
	if opts.MaxCrashStates <= 0 {
		opts.MaxCrashStates = 1
	}
	return &Executor{factory: factory, opts: opts, pools: pools}
}

// SetEmitter wires the executor's checkpoint-restore counter into the
// campaign registry. Call before Run.
func (x *Executor) SetEmitter(em *obs.Emitter) {
	x.mRestores = em.Registry().Counter(obs.MCheckpointRestores)
}

// SetTracer wires span recording for sampled executions. Call before Run.
func (x *Executor) SetTracer(tr *obs.Tracer) { x.tr = tr }

// newPool creates a pool honouring the executor's platform options.
func (x *Executor) newPool(size uint64) *pmem.Pool {
	return pmem.NewWithOptions(size, pmem.Options{EADR: x.opts.EADR})
}

// checkpoint returns the snapshot new execution pools start from, building
// it on first use: a fresh pool with the target's Setup applied.
func (x *Executor) checkpoint() (*pmem.Snapshot, error) {
	if s := x.snap.Load(); s != nil {
		return s, nil
	}
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	if s := x.snap.Load(); s != nil {
		return s, nil
	}
	tgt := x.factory()
	env := rt.NewEnv(x.newPool(tgt.PoolSize()), rt.Config{})
	th := env.Spawn()
	if err := tgt.Setup(th); err != nil {
		return nil, err
	}
	th.Exit()
	s := env.Pool().Snapshot()
	x.snap.Store(s)
	return s, nil
}

// checkpointPool returns an execution pool holding the checkpoint: a
// recycled one restored to its own base when the free list has one, else a
// new one. A recycled pool's base becomes the executor's checkpoint if it
// has none yet, so an executor that ever drew a pool never runs Setup.
func (x *Executor) checkpointPool() (*pmem.Pool, error) {
	if v := x.pools.Get(); v != nil {
		pool := v.(*pmem.Pool)
		base := pool.Base()
		pool.Restore(base) // dirty-line restore
		x.snap.CompareAndSwap(nil, base)
		x.mRestores.Inc()
		return pool, nil
	}
	snap, err := x.checkpoint()
	if err != nil {
		return nil, err
	}
	return pmem.NewFromSnapshot(snap), nil
}

// Run executes the seed once under the given interleaving strategy and
// returns everything the PM checkers and coverage maps observed. Each
// execution begins from an empty, freshly initialized pool (or its
// checkpoint) to avoid the side effects of previous pools (paper §4.5).
func (x *Executor) Run(seed *workload.Seed, strat sched.Strategy) (*ExecResult, error) {
	return x.RunTraced(seed, strat, -1)
}

// RunTraced is Run with span recording: lane >= 0 marks a sampled execution
// and records an exec_run span (with conflict_analysis and crash_state_enum
// children) on that lane; lane -1 records nothing. The per-access hooks are
// never on the span path — only the execution's boundary work is timed.
func (x *Executor) RunTraced(seed *workload.Seed, strat sched.Strategy, lane int) (*ExecResult, error) {
	start := time.Now()
	res := &ExecResult{}
	var mu sync.Mutex // guards res' capture slices across worker threads

	sp := x.tr.Start(lane, obs.SpanExecRun)
	execID := int64(0)
	if sp.Active() {
		execID = x.tr.NextExec()
		sp.SetExec(execID)
	}
	// Crash-state enumeration runs inside detection hooks on driver-thread
	// goroutines, concurrent with the worker's own spans — each capture
	// gets a detail lane of its own so lanes keep nesting properly.
	var subLane atomic.Int32
	captureCrash := func(p *pmem.Pool, side pmem.Range) ([]pmem.CrashState, []pmem.DirtyWord) {
		var csp obs.SpanCtx
		if sp.Active() {
			l := obs.LaneExecDetailBase + lane*16 + int(subLane.Add(1)%14)
			csp = x.tr.Start(l, obs.SpanCrashStateEnum)
			csp.SetExec(execID)
		}
		states := p.CrashStates([]pmem.Range{side}, x.opts.MaxCrashStates)
		csp.SetAttr("states", strconv.Itoa(len(states)))
		csp.End()
		return states, p.DirtyWords(maxDirtyWords)
	}

	var pool *pmem.Pool
	fromCheckpoint := false
	tgt := x.factory()
	if x.opts.UseCheckpoints {
		var err error
		if pool, err = x.checkpointPool(); err != nil {
			return nil, err
		}
		fromCheckpoint = true
	} else {
		pool = x.newPool(tgt.PoolSize())
	}

	// Per-address statistics only feed interleaving-queue construction,
	// which happens before the PM-aware tier runs — an interleaved
	// execution re-collecting them would merge thousands of entries
	// per run that nothing reads (the paper decouples input generation
	// from interleaving exploration for exactly this reason).
	collectStats := x.opts.CollectStats
	if _, ok := strat.(*sched.PMAware); ok {
		collectStats = false
	}

	env := rt.NewEnv(pool, rt.Config{
		Strategy:           strat,
		CollectStats:       collectStats,
		KnownInconsistency: x.opts.KnownInconsistency,
		KnownSync:          x.opts.KnownSync,
		OnInconsistency: func(e *rt.Env, in *core.Inconsistency) {
			if x.opts.KnownInconsistency != nil && x.opts.KnownInconsistency(in.Key()) {
				// Duplicate fingerprint: the merge only counts it, so
				// skip the crash-state enumeration and PM diff.
				mu.Lock()
				res.Inconsistencies = append(res.Inconsistencies, CapturedInconsistency{In: in})
				mu.Unlock()
				return
			}
			states, dirty := captureCrash(e.Pool(), in.SideEffect)
			mu.Lock()
			if res.Input == "" {
				res.Input = seed.Encode()
			}
			in.Input = res.Input
			res.Inconsistencies = append(res.Inconsistencies, CapturedInconsistency{In: in, States: states, Trace: in.Interleaving(), Dirty: dirty})
			mu.Unlock()
		},
		OnSync: func(e *rt.Env, si *core.SyncInconsistency) {
			if x.opts.KnownSync != nil && x.opts.KnownSync(si) {
				mu.Lock()
				res.Syncs = append(res.Syncs, CapturedSync{Si: si})
				mu.Unlock()
				return
			}
			states, dirty := captureCrash(e.Pool(), pmem.Range{Off: si.Addr, Len: 8})
			mu.Lock()
			if res.Input == "" {
				res.Input = seed.Encode()
			}
			si.Input = res.Input
			res.Syncs = append(res.Syncs, CapturedSync{Si: si, States: states, Trace: si.Interleaving(), Dirty: dirty})
			mu.Unlock()
		},
	})

	// Setup phase (the cost the checkpoint amortizes).
	setupStart := time.Now()
	init := env.Spawn()
	var err error
	if fromCheckpoint {
		err = tgt.Recover(init)
	} else {
		err = tgt.Setup(init)
	}
	init.Exit()
	if err != nil {
		return nil, err
	}
	res.SetupDuration = time.Since(setupStart)

	// Workload phase: one goroutine per driver thread. Protocol mode plays
	// recorded connection byte streams through the wire parser, each
	// driver thread a server worker; synthetic mode runs one operation
	// vector per thread.
	var bodies []func(*rt.Thread)
	if seed.Proto != nil && len(seed.Proto.Streams) > 0 {
		nthreads := protoThreadCount(seed)
		for ti := 0; ti < nthreads; ti++ {
			bodies = append(bodies, func(th *rt.Thread) {
				x.protoWorker(th, tgt, seed, ti, nthreads, res, &mu)
			})
		}
	} else {
		for _, ops := range seed.Split() {
			bodies = append(bodies, func(th *rt.Thread) {
				for _, op := range ops {
					if execErr := tgt.Exec(th, op); execErr != nil {
						mu.Lock()
						res.ExecErrors++
						mu.Unlock()
					}
				}
			})
		}
	}
	// A start barrier makes the threads actually overlap: without it,
	// goroutine startup latency exceeds a short workload's runtime and the
	// execution degenerates to sequential order with no cross-thread
	// windows.
	gate := make(chan struct{})
	var ready sync.WaitGroup
	var wg sync.WaitGroup
	env.BeginExec(len(bodies))
	for _, body := range bodies {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			th := env.Spawn()
			defer th.Exit()
			ready.Done()
			<-gate
			defer func() {
				// A hung thread abandons its remaining work.
				if r := recover(); r != nil {
					h, ok := r.(rt.HangError)
					if !ok {
						panic(r)
					}
					mu.Lock()
					res.Hangs = append(res.Hangs, h.Report)
					mu.Unlock()
				}
			}()
			body(th)
		}()
	}
	ready.Wait()
	close(gate)
	wg.Wait()
	asp := sp.Child(obs.SpanConflictAnalysis)
	env.EndExec()
	if asp.Active() {
		batches, records := env.Batch().Counts()
		asp.SetAttr("batches", strconv.FormatInt(batches, 10))
		asp.SetAttr("records", strconv.FormatInt(records, 10))
	}
	asp.End()

	// Replay each mid-request crash state through the target's recovery
	// code: a server that cannot recover from a crash between parse and
	// commit has a durability bug regardless of any detected race.
	for _, st := range res.CrashPoints {
		if msg := x.checkCrashRecovery(st); msg != "" {
			res.CrashFailures = append(res.CrashFailures, msg)
		}
	}
	res.CrashPoints = nil

	res.Candidates = env.Detector().Candidates()
	res.Redundant = env.Detector().RedundantStores()
	res.Coverage = env.Coverage()
	res.Stats = env.TakeStats()
	if pm, ok := strat.(*sched.PMAware); ok {
		o := pm.Outcome()
		res.Outcome = &o
	}
	// The outcome signature must be taken before the pool is recycled:
	// the next execution's restore wipes the dirty-word state.
	res.Signature = sched.OutcomeSig{
		Alias: env.Coverage().Alias.Hash(),
		Dirty: pool.DirtySetHash(),
	}
	if fromCheckpoint {
		// Hand the pool back for the next execution; nothing retains it
		// (crash states copy their lines and reference only the snapshot).
		x.pools.Put(pool)
	}
	res.Duration = time.Since(start)
	if sp.Active() {
		sp.SetAttr("setup_us", strconv.FormatInt(res.SetupDuration.Microseconds(), 10))
		if fromCheckpoint {
			sp.SetAttr("checkpoint", "true")
		}
	}
	sp.End()
	return res, nil
}
