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
	Stats           map[pmem.Addr]*sched.AddrStats
	Outcome         *sched.Outcome // set when the PM-aware strategy ran
	// Signature is the execution's outcome fingerprint (alias-coverage
	// hash, dirty-word set hash); the fuzzer's interleaving-equivalence
	// pruning keys on it.
	Signature     sched.OutcomeSig
	Duration      time.Duration
	SetupDuration time.Duration
	ExecErrors    int
	// CrashImages are PM snapshots taken at a protocol seed's mid-request
	// crash points (between parse and PM commit); Run recycles them once
	// their recovery is checked, so a returned result holds none.
	// CrashFailures reports those whose recovery replay hung, errored,
	// panicked or timed out.
	CrashImages   [][]byte
	CrashFailures []string
}

// maxDirtyWords bounds the PM-state diff captured per detection; a resize in
// flight can leave thousands of dirty words, and the first few hundred are
// evidence enough.
const maxDirtyWords = 256

// ExecOptions configure the campaign executor.
type ExecOptions struct {
	// HangTimeout bounds lock acquisition during the workload.
	HangTimeout time.Duration
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
	// skips the forensic capture — crash-state enumeration, PM diff and
	// interleaving — for duplicates, which the merge would recycle unread.
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
	snap   *pmem.Snapshot

	// pools recycles checkpoint pools across executions: a recycled pool
	// is already based on the shared snapshot, so restoring it copies only
	// the lines the previous execution dirtied instead of the whole image
	// (and skips the allocation entirely).
	pools sync.Pool
}

// NewExecutor creates an executor for the target factory.
func NewExecutor(factory targets.Factory, opts ExecOptions) *Executor {
	if opts.HangTimeout <= 0 {
		opts.HangTimeout = 80 * time.Millisecond
	}
	if opts.MaxCrashStates <= 0 {
		opts.MaxCrashStates = 1
	}
	return &Executor{factory: factory, opts: opts}
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

// checkpoint builds the shared pool snapshot on first use: a fresh pool with
// the target's Setup applied.
func (x *Executor) checkpoint() (*pmem.Snapshot, error) {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	if x.snap != nil {
		return x.snap, nil
	}
	tgt := x.factory()
	env := rt.NewEnv(x.newPool(tgt.PoolSize()), rt.Config{})
	th := env.Spawn()
	if err := tgt.Setup(th); err != nil {
		return nil, err
	}
	th.Exit()
	x.snap = env.Pool().Snapshot()
	return x.snap, nil
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
	crashSpan := func() obs.SpanCtx {
		if !sp.Active() {
			return obs.SpanCtx{}
		}
		l := obs.LaneExecDetailBase + lane*16 + int(subLane.Add(1)%14)
		csp := x.tr.Start(l, obs.SpanCrashStateEnum)
		csp.SetExec(execID)
		return csp
	}

	var pool *pmem.Pool
	fromCheckpoint := false
	tgt := x.factory()
	if x.opts.UseCheckpoints {
		snap, err := x.checkpoint()
		if err != nil {
			return nil, err
		}
		if v := x.pools.Get(); v != nil {
			pool = v.(*pmem.Pool)
			pool.Restore(snap) // dirty-line restore
			x.mRestores.Inc()
		} else {
			pool = pmem.NewFromSnapshot(snap)
		}
		fromCheckpoint = true
	} else {
		pool = x.newPool(tgt.PoolSize())
	}

	// Per-address statistics only feed interleaving-queue construction,
	// which happens before the PM-aware tier runs — an interleaved
	// execution re-collecting them would merge thousands of map entries
	// per run that nothing reads (the paper decouples input generation
	// from interleaving exploration for exactly this reason).
	collectStats := x.opts.CollectStats
	if _, ok := strat.(*sched.PMAware); ok {
		collectStats = false
	}

	env := rt.NewEnv(pool, rt.Config{
		Strategy:     strat,
		HangTimeout:  x.opts.HangTimeout,
		CollectStats: collectStats,
		OnInconsistency: func(e *rt.Env, in *core.Inconsistency) {
			if x.opts.KnownInconsistency != nil && x.opts.KnownInconsistency(in.Key()) {
				// Duplicate fingerprint: the merge only counts it, so
				// skip the crash-state enumeration and PM diff.
				mu.Lock()
				res.Inconsistencies = append(res.Inconsistencies, CapturedInconsistency{In: in})
				mu.Unlock()
				return
			}
			in.Input = seed.Encode()
			csp := crashSpan()
			states := e.Pool().CrashStates([]pmem.Range{in.SideEffect}, x.opts.MaxCrashStates)
			csp.SetAttr("states", strconv.Itoa(len(states)))
			csp.End()
			dirty := e.Pool().DirtyWords(maxDirtyWords)
			mu.Lock()
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
			si.Input = seed.Encode()
			csp := crashSpan()
			states := e.Pool().CrashStates([]pmem.Range{{Off: si.Addr, Len: 8}}, x.opts.MaxCrashStates)
			csp.SetAttr("states", strconv.Itoa(len(states)))
			csp.End()
			dirty := e.Pool().DirtyWords(maxDirtyWords)
			mu.Lock()
			res.Syncs = append(res.Syncs, CapturedSync{Si: si, States: states, Trace: si.Interleaving(), Dirty: dirty})
			mu.Unlock()
		},
		OnHang: func(_ *rt.Env, h rt.HangReport) {
			mu.Lock()
			res.Hangs = append(res.Hangs, h)
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

	// Workload phase: one goroutine per driver thread. A start barrier
	// makes the threads actually overlap: without it, goroutine startup
	// latency exceeds a short workload's runtime and the execution
	// degenerates to sequential order with no cross-thread windows.
	gate := make(chan struct{})
	var ready sync.WaitGroup
	var wg sync.WaitGroup
	if seed.Proto != nil && len(seed.Proto.Streams) > 0 {
		// Protocol mode: each driver thread is a server worker playing
		// recorded connection byte streams through the wire parser.
		nthreads := protoThreadCount(seed)
		env.BeginExec(nthreads)
		for ti := 0; ti < nthreads; ti++ {
			wg.Add(1)
			ready.Add(1)
			go func(ti int) {
				defer wg.Done()
				th := env.Spawn()
				defer th.Exit()
				ready.Done()
				<-gate
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(rt.HangError); !ok {
							panic(r)
						}
					}
				}()
				x.protoWorker(th, tgt, seed, ti, nthreads, res, &mu)
			}(ti)
		}
	} else {
		parts := seed.Split()
		env.BeginExec(len(parts))
		for _, ops := range parts {
			wg.Add(1)
			ready.Add(1)
			go func(ops []workload.Op) {
				defer wg.Done()
				th := env.Spawn()
				defer th.Exit()
				ready.Done()
				<-gate
				defer func() {
					// A hung thread abandons its remaining
					// operations; the hang was already reported
					// through OnHang.
					if r := recover(); r != nil {
						if _, ok := r.(rt.HangError); !ok {
							panic(r)
						}
					}
				}()
				for _, op := range ops {
					if execErr := tgt.Exec(th, op); execErr != nil {
						mu.Lock()
						res.ExecErrors++
						mu.Unlock()
					}
				}
			}(ops)
		}
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

	// Replay each mid-request crash image through the target's recovery
	// code: a server that cannot recover from a crash between parse and
	// commit has a durability bug regardless of any detected race.
	for _, img := range res.CrashImages {
		if msg := x.checkCrashRecovery(img); msg != "" {
			res.CrashFailures = append(res.CrashFailures, msg)
		}
		pmem.RecycleImage(img)
	}
	res.CrashImages = nil

	res.Candidates = env.Detector().Candidates()
	res.Redundant = env.Detector().RedundantStores()
	res.Coverage = env.Coverage()
	if collectStats {
		res.Stats = env.Stats()
	}
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
		// (crash images are independent copies).
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
