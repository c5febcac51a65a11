package pmrace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/serve"
	"github.com/pmrace-go/pmrace/internal/targets"
)

// ErrUnknownTarget is returned (wrapped, with the offending name and the
// registered alternatives) by NewCampaign when the target name is not in
// the registry. Match it with errors.Is.
var ErrUnknownTarget = errors.New("unknown target")

// CampaignState is the typed campaign lifecycle, shared verbatim with the
// REST API's `state` field (it aliases api.State, the wire enum): an
// in-process campaign and a pmraced-managed one spell their states
// identically.
type CampaignState = api.State

// The campaign lifecycle states. In-process campaigns start on NewCampaign,
// so they never report StatePending — that state exists for pmraced, where
// a submitted campaign may queue for worker-budget headroom.
const (
	StatePending   = api.StatePending
	StateRunning   = api.StateRunning
	StateDraining  = api.StateDraining
	StateDone      = api.StateDone
	StateCancelled = api.StateCancelled
	StateFailed    = api.StateFailed
)

// Observability surface, re-exported from internal/obs.
type (
	// Event is one typed campaign event (see the Kind* constants for the
	// taxonomy).
	Event = obs.Event
	// Stats is a point-in-time campaign statistics snapshot; the terminal
	// CampaignDone event carries the final one.
	Stats = obs.Stats
	// Sink consumes events synchronously and losslessly (JSONL trace
	// writer, progress renderer, in-memory collector).
	Sink = obs.Sink

	// The concrete event payload types.
	PhaseChange           = obs.PhaseChange
	ExecDone              = obs.ExecDone
	SeedAccepted          = obs.SeedAccepted
	InterleavingScheduled = obs.InterleavingScheduled
	InconsistencyFound    = obs.InconsistencyFound
	ValidationVerdict     = obs.ValidationVerdict
	BugConfirmed          = obs.BugConfirmed
	CampaignDone          = obs.CampaignDone
)

// Event kinds.
const (
	KindPhaseChange           = obs.KindPhaseChange
	KindExecDone              = obs.KindExecDone
	KindSeedAccepted          = obs.KindSeedAccepted
	KindInterleavingScheduled = obs.KindInterleavingScheduled
	KindInconsistencyFound    = obs.KindInconsistencyFound
	KindValidationVerdict     = obs.KindValidationVerdict
	KindBugConfirmed          = obs.KindBugConfirmed
	KindCampaignDone          = obs.KindCampaignDone
)

// NewCollector returns an in-memory sink recording every event, for tests
// and programmatic post-processing.
func NewCollector() *obs.Collector { return obs.NewCollector() }

// NewJSONLSink returns a sink writing one JSON object per event to w.
func NewJSONLSink(w io.Writer) Sink { return obs.NewJSONLSink(w) }

// Campaign is a running fuzzing session. It starts immediately on
// NewCampaign and runs until its budget is exhausted or its context is
// cancelled; while in flight it exposes a live event stream, statistics
// snapshots, and a typed lifecycle state.
type Campaign struct {
	fz       *fuzz.Fuzzer
	em       *obs.Emitter
	ctx      context.Context
	events   <-chan obs.Event
	done     chan struct{}
	httpAddr string
	res      *Result
	err      error
}

// NewCampaign creates and starts a fuzzing campaign against a registered
// target. An unregistered target fails immediately with ErrUnknownTarget.
// Cancelling ctx stops every worker at its next inter-execution check —
// within one execution — after which Wait returns the partial Result
// accumulated so far.
//
//	ctx, cancel := context.WithCancel(context.Background())
//	defer cancel()
//	c, err := pmrace.NewCampaign(ctx, "pclht",
//		pmrace.WithWorkers(8),
//		pmrace.WithBudget(500, 2*time.Minute))
//	if err != nil { ... }
//	for ev := range c.Events() {
//		if bug, ok := ev.(*pmrace.BugConfirmed); ok {
//			fmt.Println("bug:", bug.Summary)
//		}
//	}
//	res, _ := c.Wait()
func NewCampaign(ctx context.Context, target string, options ...CampaignOption) (*Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !targets.Has(target) {
		return nil, fmt.Errorf("pmrace: %w %q (registered: %s)",
			ErrUnknownTarget, target, strings.Join(targets.Names(), ", "))
	}
	cfg := campaignConfig{eventBuf: 4096}
	for _, o := range options {
		o(&cfg)
	}
	cfg.spec.Target = target
	opts, err := serve.FuzzOptions(cfg.base, cfg.spec)
	if err != nil {
		return nil, err
	}
	fz, err := fuzz.New(target, opts)
	if err != nil {
		return nil, err
	}

	em := obs.NewEmitter(cfg.sinks...)
	if cfg.progress != nil {
		em.AddSink(obs.NewProgressSink(cfg.progress, 0, fz.Snapshot))
	}
	events := em.Subscribe(cfg.eventBuf)
	fz.SetEmitter(em)

	anomalies := ""
	if opts.ArtifactDir != "" {
		anomalies = filepath.Join(opts.ArtifactDir, "anomalies")
	}
	serve.StartTracer(fz, cfg.spec.TraceSample, "local", target, anomalies)
	c := &Campaign{fz: fz, em: em, ctx: ctx, events: events, done: make(chan struct{})}
	// Closing the emitter after the terminal CampaignDone event drains and
	// then closes the Events() channel, ending consumer range loops and SSE
	// streams; the HTTP server goes down after its streams have drained.
	finish, stop := func(*Result, error) { em.Close() }, func() {}
	if cfg.httpAddr != "" {
		if finish, stop, err = c.startServer(cfg); err != nil {
			em.Close()
			return nil, err
		}
	}
	go func() {
		defer close(c.done)
		c.res, c.err = fz.RunContext(c.ctx)
		finish(c.res, c.err)
		stop()
	}()
	return c, nil
}

// startServer enters the campaign into a one-campaign pmraced supervisor and
// serves the supervisor's handler on cfg.httpAddr, so a local campaign
// answers the same endpoints as pmraced. It rebinds c.ctx to the
// supervisor's context for the campaign (DELETE cancels it, as does the
// caller's context) and returns the supervisor's completion step plus stop,
// which shuts the server down and removes the supervisor's temporary data
// directory.
func (c *Campaign) startServer(cfg campaignConfig) (func(*Result, error), func(), error) {
	ln, err := net.Listen("tcp", cfg.httpAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("pmrace: introspection listen on %s: %w", cfg.httpAddr, err)
	}
	sup, err := serve.New(serve.Config{WorkerBudget: cfg.spec.Workers, MaxCampaigns: 1})
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	srv := &http.Server{Handler: sup.Handler()}
	stop := func() {
		// The campaign's SSE streams ended with its emitter; a request
		// still open after the grace period (a pprof profile) is cut off.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		_ = sup.Drain(ctx)              // nothing runs any more; this stops the sampler
		_ = os.RemoveAll(sup.DataDir()) // best effort: a temporary directory
	}
	ctx, finish, err := sup.Attach(c.ctx, cfg.spec, c.fz)
	if err != nil {
		ln.Close()
		stop()
		return nil, nil, err
	}
	go srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	c.ctx, c.httpAddr = ctx, ln.Addr().String()
	return finish, stop, nil
}

// Spans returns the campaign's recorded span timeline (oldest first), or nil
// when tracing was not enabled (see WithTracing). The flight recorder is
// bounded: a long campaign retains its most recent spans.
func (c *Campaign) Spans() []obs.Span { return c.fz.Tracer().Spans() }

// WriteTrace writes the campaign's span timeline to w as Chrome trace-event
// JSON, loadable in ui.perfetto.dev or chrome://tracing. It errors when
// tracing was not enabled.
func (c *Campaign) WriteTrace(w io.Writer) error {
	tr := c.fz.Tracer()
	if tr == nil {
		return errors.New("pmrace: tracing not enabled (use WithTracing)")
	}
	return tr.WriteChrome(w)
}

// HTTPAddr returns the bound address of the campaign's HTTP server (see
// WithHTTPAddr), or "" when none was requested.
func (c *Campaign) HTTPAddr() string { return c.httpAddr }

// State returns the campaign's lifecycle state. An in-process campaign is
// Running from NewCampaign on; it becomes Draining once its context is
// cancelled while workers finish their in-flight executions, and settles
// terminal as Done (budget exhausted), Cancelled (context cancelled) or
// Failed (Wait returns an error). The same enum — and the same strings —
// appear in the REST API's `state` field.
func (c *Campaign) State() CampaignState {
	select {
	case <-c.done:
		switch {
		case c.err != nil:
			return StateFailed
		case c.ctx.Err() != nil:
			return StateCancelled
		default:
			return StateDone
		}
	default:
	}
	if c.ctx.Err() != nil {
		return StateDraining
	}
	return StateRunning
}

// Events returns the campaign's event stream. The channel is buffered
// (WithEventBuffer); if the consumer falls behind, the oldest buffered
// event is shed — attach a Sink for lossless consumption. The channel is
// closed once the campaign is over and the terminal CampaignDone event has
// been delivered.
func (c *Campaign) Events() <-chan Event { return c.events }

// Snapshot returns live campaign statistics, stamped with the current
// lifecycle state; safe to call at any time from any goroutine. After the
// campaign finishes, it equals the final Result's aggregates.
func (c *Campaign) Snapshot() Stats {
	st := c.fz.Snapshot()
	st.State = string(c.State())
	return st
}

// Done returns a channel closed when the campaign has finished.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Wait blocks until the campaign finishes and returns its Result. On
// context cancellation the partial Result is returned without error —
// cancellation is a normal way to end a campaign, like exhausting the
// budget. Wait may be called multiple times and from multiple goroutines.
func (c *Campaign) Wait() (*Result, error) {
	<-c.done
	return c.res, c.err
}
