package validate

import (
	"fmt"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/targets"
)

// DefaultWallTimeout bounds one recovery run's wall-clock time when Options
// leaves WallTimeout zero. It is deliberately much larger than
// rt.DefaultHangTimeout: the spin detector fires first for instrumented
// hangs, and the watchdog only catches what the detector cannot see.
const DefaultWallTimeout = 2 * time.Second

// Options configure validation runs.
type Options struct {
	// WallTimeout bounds one recovery run's total wall-clock time. It
	// catches hangs the spin-lock detector cannot see: uninstrumented
	// loops, sleeps, runaway recovery. Zero selects DefaultWallTimeout.
	WallTimeout time.Duration
	// Whitelist holds the benign patterns; nil disables whitelisting.
	Whitelist *core.Whitelist
	// Obs, when set, receives a ValidationVerdict event per judged finding
	// (from which the emitter derives the validation run, latency and
	// crash-state metrics) and feeds the validate_state histogram and the
	// wall-timeout counter.
	Obs *obs.Emitter
	// Trace, when set, records a validate span per finding (with a
	// validate_state child per crash state) on lane TraceLane. Findings are
	// rare, so validation spans are always-on rather than sampled.
	Trace     *obs.Tracer
	TraceLane int
}

// observe stamps the validation latency and emits the verdict event.
func (o Options) observe(class string, r Result, started time.Time) Result {
	r.Latency = time.Since(started)
	o.Obs.Emit(&obs.ValidationVerdict{
		Class:        class,
		Status:       r.Status.String(),
		RecoveryHung: r.RecoveryHung,
		CrashStates:  len(r.States),
		Latency:      r.Latency,
	})
	return r
}

// finish is observe plus span completion: the validate span records the
// class and final status as attributes.
func (o Options) finish(sp *obs.SpanCtx, class string, r Result, started time.Time) Result {
	r = o.observe(class, r, started)
	sp.SetAttr("class", class)
	sp.SetAttr("status", r.Status.String())
	sp.End()
	return r
}

// StateVerdict is one row of the per-state verdict table.
type StateVerdict struct {
	// State names the crash state (pmem.StateSideEffect, ...).
	State string
	// Status is this state's verdict: bug or validated FP.
	Status core.Status
	// RecoveryHung reports the recovery run hung (spin-lock detector or
	// wall-clock watchdog).
	RecoveryHung bool
	// WallTimeout reports that the watchdog, not the spin-lock detector,
	// declared the hang.
	WallTimeout bool
	// RecoveryErr records a recovery failure, if any.
	RecoveryErr error
	// Latency is the wall time of this state's recovery run.
	Latency time.Duration
}

// Result is the outcome of one validation run.
type Result struct {
	Status core.Status
	// RecoveryHung reports that some state's recovery run hung — direct
	// evidence for synchronization bugs.
	RecoveryHung bool
	// RecoveryErr records the first failing state's recovery error.
	RecoveryErr error
	// Latency is the wall time of the whole validation (whitelist check
	// plus every state's recovery run); artifact bundles record it.
	Latency time.Duration
	// States is the per-state verdict table, in enumeration order. Empty
	// for whitelisted and external findings, which skip recovery.
	States []StateVerdict
}

// aggregate folds the per-state table into the finding-level verdict: a bug
// if any enumerated state failed recovery, a validated FP only when every
// state passed. The first failing state's evidence is hoisted to the top.
func aggregate(r Result) Result {
	r.Status = core.StatusValidatedFP
	for _, v := range r.States {
		if v.Status == core.StatusBug {
			r.Status = core.StatusBug
			r.RecoveryHung = v.RecoveryHung
			r.RecoveryErr = v.RecoveryErr
			break
		}
	}
	return r
}

// Inconsistency validates one inter-/intra-thread inconsistency against its
// enumerated crash states (pmem.CrashStates, or pmem.AdversarialState for
// the paper's single-image validation).
func Inconsistency(factory targets.Factory, states []pmem.CrashState, in *core.Inconsistency, opts Options) Result {
	started := time.Now()
	sp := opts.Trace.Start(opts.TraceLane, obs.SpanValidate)
	class := in.Class()
	if opts.Whitelist != nil && opts.Whitelist.MatchInconsistency(in) {
		return opts.finish(&sp, class, Result{Status: core.StatusWhitelistedFP}, started)
	}
	if in.External {
		// The external world cannot be overwritten by recovery: a disk
		// write or a message based on lost PM state is a bug outright.
		return opts.finish(&sp, class, Result{Status: core.StatusBug}, started)
	}
	var res Result
	for _, st := range states {
		hasSE := st.HasSideEffect
		res.States = append(res.States, opts.judgeState(factory, st, &sp, func(env *rt.Env) core.Status {
			if !hasSE {
				// The side effect never reached PM in this state;
				// recovery completing cleanly is all we can ask.
				return core.StatusValidatedFP
			}
			if env.Pool().Overwritten(in.SideEffect) {
				return core.StatusValidatedFP
			}
			return core.StatusBug
		}))
	}
	return opts.finish(&sp, class, aggregate(res), started)
}

// Sync validates one synchronization inconsistency against its enumerated
// crash states. The annotated variable must hold its expected initial value
// after recovery in every state.
func Sync(factory targets.Factory, states []pmem.CrashState, si *core.SyncInconsistency, opts Options) Result {
	started := time.Now()
	sp := opts.Trace.Start(opts.TraceLane, obs.SpanValidate)
	if opts.Whitelist != nil && opts.Whitelist.MatchStack(si.Stack) {
		return opts.finish(&sp, si.Class(), Result{Status: core.StatusWhitelistedFP}, started)
	}
	var res Result
	for _, st := range states {
		res.States = append(res.States, opts.judgeState(factory, st, &sp, func(env *rt.Env) core.Status {
			if si.Addr+8 > env.Pool().Size() {
				return core.StatusBug
			}
			if env.Pool().Load64(si.Addr) == si.Var.InitVal {
				return core.StatusValidatedFP
			}
			return core.StatusBug
		}))
	}
	return opts.finish(&sp, si.Class(), aggregate(res), started)
}

// judgeState runs one state's recovery under the watchdog and applies the
// caller's oracle to the recovered environment when recovery completed; the
// oracle runs inside RunRecovery, before the pool is released.
// parent is the enclosing validate span; each state records a
// validate_state child under it.
func (o Options) judgeState(factory targets.Factory, st pmem.CrashState, parent *obs.SpanCtx, oracle func(*rt.Env) core.Status) StateVerdict {
	start := time.Now()
	v := StateVerdict{State: st.Name}
	ssp := parent.Child(obs.SpanValidateState)
	ssp.SetAttr("state", st.Name)
	var status core.Status
	hung, wallTimedOut, err := RunRecovery(factory, st, o.WallTimeout, func(env *rt.Env) {
		status = oracle(env)
	})
	v.Latency = time.Since(start)
	reg := o.Obs.Registry()
	reg.Histogram(obs.SpanHistName(obs.SpanValidateState)).Observe(v.Latency)
	if wallTimedOut {
		reg.Counter(obs.MValidateWallTimeouts).Inc()
	}
	v.WallTimeout = wallTimedOut
	switch {
	case hung:
		v.Status, v.RecoveryHung, v.RecoveryErr = core.StatusBug, true, err
	case err != nil:
		// Recovery could not complete: the state was not fixed.
		v.Status, v.RecoveryErr = core.StatusBug, err
	default:
		v.Status = status
	}
	ssp.SetAttr("status", v.Status.String())
	if v.RecoveryHung {
		ssp.SetAttr("hung", "true")
	}
	ssp.End()
	return v
}

// recoveryResult is what the sandboxed recovery goroutine reports.
type recoveryResult struct {
	hung bool
	err  error
}

// RunRecovery is the recovery sandbox: it restarts the target on a pool
// holding the crash state's image (pmem.FromState) and runs its recovery
// procedure in a watchdog-supervised goroutine. Every word of that pool
// starts at store epoch 0, so afterwards env.Pool().Overwritten tells which
// ranges recovery wrote. Lock hangs (rt.HangError, bounded by
// rt.DefaultHangTimeout) and recovery panics become results; a run exceeding
// wallTimeout is abandoned — its environment is cancelled so the goroutine
// stops mutating the pool at its next hook call — and reported as hung with
// wallTimedOut set. A zero wallTimeout selects DefaultWallTimeout. The pool
// copies the state's lines before the goroutine starts, and the state is
// never written, so the caller may reuse it as soon as RunRecovery returns,
// even after a wall timeout.
//
// inspect, when non-nil, is called with the recovered environment if
// recovery returned without hanging or failing; it must not keep the
// environment or its pool. RunRecovery owns the pool's whole lifetime: after
// the inspection it releases the pool for the next run (pmem.Pool.Release).
// The one exception is a wall timeout: the abandoned goroutine may still
// write until its next hook call, so that pool is never reused.
func RunRecovery(factory targets.Factory, st pmem.CrashState, wallTimeout time.Duration, inspect func(*rt.Env)) (hung, wallTimedOut bool, err error) {
	if wallTimeout <= 0 {
		wallTimeout = DefaultWallTimeout
	}
	env := rt.NewRecoveryEnv(pmem.FromState(st))
	// Buffered so an abandoned goroutine's send never blocks: the watchdog
	// result channel must not leak the recovery goroutine on top of the
	// hang it just detected.
	done := make(chan recoveryResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				switch e := r.(type) {
				case rt.HangError:
					done <- recoveryResult{hung: true, err: e}
				case rt.CancelError:
					// Abandoned by the watchdog; the verdict was
					// already returned. Exit quietly.
				default:
					done <- recoveryResult{err: fmt.Errorf("validate: recovery panicked: %v", r)}
				}
			}
		}()
		tgt := factory()
		th := env.Spawn()
		err := tgt.Recover(th)
		th.Exit()
		done <- recoveryResult{err: err}
	}()
	timer := time.NewTimer(wallTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		// The goroutine has stopped touching the pool: its send is the
		// last thing it does.
		if inspect != nil && !r.hung && r.err == nil {
			inspect(env)
		}
		env.Pool().Release()
		return r.hung, false, r.err
	case <-timer.C:
		env.Cancel()
		return true, true, fmt.Errorf("validate: recovery exceeded wall timeout %s", wallTimeout)
	}
}
