package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// campaignSpec is one in-process campaign of a workload: one worker, fixed
// seed, PM-aware exploration (the engine default).
type campaignSpec struct {
	Target   string
	Seed     int64
	MaxExecs int
	Wall     time.Duration
	Protocol bool
	// Hunt stops the campaign as soon as every expected group is
	// confirmed; otherwise it runs to its execution budget.
	Hunt bool
	// CorpusDir, when set, receives the campaign's coverage-improving seeds
	// (the inputs the per-layer replay runs on).
	CorpusDir string
}

func (s campaignSpec) options() fuzz.Options {
	return fuzz.Options{
		Workers:   1,
		Seed:      s.Seed,
		MaxExecs:  s.MaxExecs,
		Duration:  s.Wall,
		Protocol:  s.Protocol,
		CorpusDir: s.CorpusDir,
	}
}

// campaignRun is what the benchmark observed of one campaign.
type campaignRun struct {
	Spec      campaignSpec
	Setup     time.Duration // start to the first ExecDone
	Wall      time.Duration // start to Wait returning
	Execs     int
	CovBits   int
	FindExecs int           // executions until every expected group was confirmed; 0 if never
	FindAt    time.Duration // elapsed time at that point
	Missing   []string
	Found     map[string]int // group -> executions until it was confirmed
	State     pmrace.CampaignState
	Err       error
	ExecDur   []time.Duration
	Dropped   int64
	Res       *fuzz.Result
}

func (r campaignRun) execsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Execs) / r.Wall.Seconds()
}

// failure describes why the run counts as a failed operation, or "" when it
// succeeded: an error, a state other than done (a hunt stopped by its own
// find is done), or an expected group left unconfirmed.
func (r campaignRun) failure() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("%s seed %d: %v", r.Spec.Target, r.Spec.Seed, r.Err)
	case r.State != pmrace.StateDone:
		return fmt.Sprintf("%s seed %d: ended %s", r.Spec.Target, r.Spec.Seed, r.State)
	case len(r.Missing) > 0:
		return fmt.Sprintf("%s seed %d: unconfirmed %v after %d execs", r.Spec.Target, r.Spec.Seed, r.Missing, r.Execs)
	}
	return ""
}

// huntSink follows one campaign's event stream: it times set-up (start to the
// first ExecDone), keeps every execution's duration, and notes the execution
// count and elapsed time at which the last expected group was confirmed.
type huntSink struct {
	start    time.Time
	expected []string
	onFound  func()

	mu        sync.Mutex
	found     map[string]bool
	foundAt   map[string]int
	execs     int
	setup     time.Duration
	findExecs int
	findAt    time.Duration
	durs      []time.Duration
}

func newHuntSink(start time.Time, expected []string, onFound func()) *huntSink {
	return &huntSink{start: start, expected: expected, onFound: onFound,
		found: map[string]bool{}, foundAt: map[string]int{}}
}

func (s *huntSink) Emit(ev obs.Event) {
	s.mu.Lock()
	var fire func()
	switch e := ev.(type) {
	case *obs.ExecDone:
		s.execs++
		if s.execs == 1 {
			s.setup = time.Since(s.start)
		}
		s.durs = append(s.durs, e.Duration)
	case *obs.BugConfirmed:
		g := groupOfEvent(e)
		if !s.found[g] {
			s.found[g] = true
			s.foundAt[g] = max(s.execs, 1)
		}
		if s.findExecs == 0 && len(s.expected) > 0 && len(missing(s.expected, s.found)) == 0 {
			// Validation runs beside the worker, so the finding execution
			// may not have reported ExecDone yet: it counts anyway.
			s.findExecs = max(s.execs, 1)
			s.findAt = time.Since(s.start)
			fire = s.onFound
		}
	}
	s.mu.Unlock()
	if fire != nil {
		fire()
	}
}

func (s *huntSink) Close() error { return nil }

// runCampaign runs one campaign to its end. Untraced campaigns go through the
// public pmrace.NewCampaign entry point; traced ones assemble the same engine
// with a span tracer at sample rate 1 and return its metric registry, whose
// span histograms the traced pass reads.
func runCampaign(spec campaignSpec, expected []string, traced bool) (campaignRun, *obs.Registry) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop func()
	if spec.Hunt {
		stop = cancel
	}
	start := time.Now()
	sink := newHuntSink(start, expected, stop)
	run := campaignRun{Spec: spec}

	var reg *obs.Registry
	var res *fuzz.Result
	if traced {
		fz, err := fuzz.New(spec.Target, spec.options())
		if err != nil {
			run.Err = err
			return run, nil
		}
		em := obs.NewEmitter(sink)
		fz.SetEmitter(em)
		fz.SetTracer(obs.NewTracer(em.Registry(), 1))
		res, run.Err = fz.RunContext(ctx)
		run.Wall = time.Since(start)
		em.Close()
		reg = em.Registry()
		run.Dropped = em.Dropped()
		switch {
		case run.Err != nil:
			run.State = pmrace.StateFailed
		case ctx.Err() != nil:
			run.State = pmrace.StateCancelled
		default:
			run.State = pmrace.StateDone
		}
	} else {
		opts := []pmrace.CampaignOption{
			pmrace.WithWorkers(1),
			pmrace.WithSeed(spec.Seed),
			pmrace.WithBudget(spec.MaxExecs, spec.Wall),
			pmrace.WithSink(sink),
		}
		if spec.Protocol {
			opts = append(opts, pmrace.WithProtocolTraffic())
		}
		if spec.CorpusDir != "" {
			opts = append(opts, pmrace.WithCorpusDir(spec.CorpusDir))
		}
		c, err := pmrace.NewCampaign(ctx, spec.Target, opts...)
		if err != nil {
			run.Err = err
			return run, nil
		}
		// The event channel is not needed (the sink is lossless); drain
		// it so the campaign never sheds on our account.
		go func() {
			for range c.Events() {
			}
		}()
		res, run.Err = c.Wait()
		run.Wall = time.Since(start)
		run.State = c.State()
		run.Dropped = c.Snapshot().EventsDropped
	}

	sink.mu.Lock()
	run.Setup = sink.setup
	run.FindExecs = sink.findExecs
	run.FindAt = sink.findAt
	run.Missing = missing(expected, sink.found)
	run.Found = sink.foundAt
	run.ExecDur = sink.durs
	sink.mu.Unlock()
	if spec.Hunt && run.State == pmrace.StateCancelled && run.FindExecs > 0 {
		// The hunt's own stop: the campaign did what it was run for.
		run.State = pmrace.StateDone
	}
	if res != nil {
		run.Res = res
		run.Execs = res.Execs
		run.CovBits = res.BranchCov + res.AliasCov
	}
	return run, reg
}
