// Package serve is the pmraced control plane: a supervisor scheduling many
// concurrent fuzzing campaigns over a shared worker budget, and the REST
// handlers (package api's wire contract) that drive it.
//
// The supervisor admits submitted campaigns from a FIFO queue whenever the
// worker budget has headroom, runs each on the engine (internal/fuzz) with
// its own emitter — so every campaign has an independent event stream and
// metrics registry — and shares two things across campaigns: a per-target
// corpus directory (coverage found by one campaign seeds the next) and a
// cross-campaign bug-fingerprint store that flags re-discovered bugs as
// duplicates. Graceful drain cancels contexts and lets in-flight executions
// finish, so partial results are persisted, never lost.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"

	// The supervisor validates specs against the target registry, so it is
	// responsible for linking the shipped targets in — cmd/pmraced does not
	// import the root pmrace package that registers them for the CLI.
	_ "github.com/pmrace-go/pmrace/internal/targets/cceh"
	_ "github.com/pmrace-go/pmrace/internal/targets/clevel"
	_ "github.com/pmrace-go/pmrace/internal/targets/fastfair"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
	_ "github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// Config sizes a Supervisor. The zero value is usable: 4 shared workers, a
// temporary data directory, no artifact retention limit.
type Config struct {
	// WorkerBudget is the shared fuzzing-worker capacity. Campaigns are
	// admitted from the queue while their Workers fit under it (default 4).
	WorkerBudget int
	// MaxCampaigns bounds campaigns tracked at once, queued and terminal
	// included; submissions beyond it are rejected with 409 (default 64).
	MaxCampaigns int
	// DataDir roots the server's state: DataDir/corpus/<target> is the
	// shared per-target corpus, DataDir/artifacts/<campaign> the per-
	// campaign bundle directories. Empty selects a fresh temp directory.
	DataDir string
	// Retention caps the artifact bundles kept across all campaigns;
	// after each campaign finishes the oldest beyond it are collected
	// (internal/artifact.GC). 0 keeps everything.
	Retention int
	// GCGrace exempts bundles younger than it from retention GC, so one
	// campaign's post-run sweep never deletes a bundle another in-flight
	// campaign just published (default 1m; negative disables the grace).
	GCGrace time.Duration
	// DrainTimeout bounds Drain's wait for in-flight executions
	// (default 30s).
	DrainTimeout time.Duration
	// TraceSample is the server-default span-tracing sample rate applied
	// to campaigns whose spec leaves TraceSample zero: one execution in
	// TraceSample records detailed spans. 0 selects
	// obs.DefaultTraceSample; negative disables tracing by default (a
	// spec can still opt in with an explicit positive TraceSample).
	TraceSample int
}

func (c Config) withDefaults() Config {
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 4
	}
	if c.MaxCampaigns <= 0 {
		c.MaxCampaigns = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.GCGrace == 0 {
		c.GCGrace = time.Minute
	} else if c.GCGrace < 0 {
		c.GCGrace = 0
	}
	if c.TraceSample == 0 {
		c.TraceSample = obs.DefaultTraceSample
	}
	return c
}

// campaign is one supervised campaign. The fuzzer and emitter exist from
// submission on — subscribers attached while the campaign is still Pending
// observe the complete event stream.
type campaign struct {
	id     string
	spec   api.CampaignSpec
	fz     *fuzz.Fuzzer
	em     *obs.Emitter
	tr     *obs.Tracer // nil when tracing is disabled for this campaign
	qsp    obs.SpanCtx // queue_wait span, open while Pending
	ctx    context.Context
	cancel context.CancelFunc
	artDir string
	// restored is the persisted final document of a campaign reloaded after
	// a server restart. A restored campaign has no fuzzer, emitter, tracer
	// or context — it exists to keep its record (and artifacts) readable —
	// so every path below that touches those fields guards on it.
	restored *api.Campaign

	mu       sync.Mutex
	state    api.State
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	bugs     []api.Bug
	done     chan struct{}
}

// Supervisor owns the campaign table, the admission queue and the shared
// worker budget.
type Supervisor struct {
	cfg Config

	// reg holds server-level metrics (queue depth, budget in use, runtime
	// self-telemetry); sampler feeds the runtime gauges at 1 Hz.
	reg     *obs.Registry
	sampler *obs.RuntimeSampler

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string    // insertion order, for stable listings
	queue     []*campaign // pending, FIFO
	used      int         // workers charged to running campaigns
	nextID    int
	draining  bool
	// seen is the cross-campaign dedup store: target -> bug fingerprint ->
	// ID of the campaign that first reported it.
	seen map[string]map[string]string
	wg   sync.WaitGroup
}

// New creates a Supervisor. It owns cfg.DataDir's corpus/ and artifacts/
// subtrees (creating them as needed).
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "pmraced-*")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "corpus"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "artifacts"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "campaigns"), 0o755); err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:       cfg,
		reg:       obs.NewRegistry(),
		campaigns: map[string]*campaign{},
		seen:      map[string]map[string]string{},
	}
	if err := s.restoreCampaigns(); err != nil {
		return nil, err
	}
	s.sampler = obs.StartRuntimeSampler(s.reg, time.Second)
	return s, nil
}

// DataDir returns the resolved state directory.
func (s *Supervisor) DataDir() string { return s.cfg.DataDir }

// FuzzOptions is the one translation of a campaign spec onto engine
// options, shared by Submit and the in-process NewCampaign. Every spec field
// overwrites its engine knob (zero keeps the engine default); base carries
// the knobs the spec has no field for — corpus and artifact directories,
// alias hints, whitelist entries, the validation pool — through unchanged.
// It rejects an unknown mode and artifacts_all without artifacts.
func FuzzOptions(base fuzz.Options, spec api.CampaignSpec) (fuzz.Options, error) {
	mode, err := fuzz.ParseMode(spec.Mode)
	if err != nil {
		return fuzz.Options{}, err
	}
	if spec.ArtifactsAll && !spec.Artifacts {
		return fuzz.Options{}, errors.New("artifacts_all requires artifacts")
	}
	o := base
	o.Mode = mode
	o.Workers = spec.Workers
	o.Threads = spec.Threads
	o.MaxExecs = spec.MaxExecs
	o.Duration = spec.Duration
	o.Seed = spec.Seed
	o.KeySpace = spec.KeySpace
	o.OpsPerSeed = spec.OpsPerSeed
	o.Protocol = spec.Protocol
	o.MaxCrashStates = spec.MaxCrashStates
	o.InlineValidation = spec.InlineValidation
	o.EADR = spec.EADR
	o.NoCheckpoints = spec.NoCheckpoints
	o.ArtifactAll = spec.ArtifactsAll
	return o, nil
}

// StartTracer gives fz a span tracer sampling every rate-th execution, named
// after campaign id and target, that dumps its flight recorder on anomalies
// into anomalyDir ("" keeps dumps off). A rate <= 0 leaves fz untraced.
func StartTracer(fz *fuzz.Fuzzer, rate int, id, target, anomalyDir string) {
	if rate <= 0 {
		return
	}
	tr := obs.NewTracer(fz.Emitter().Registry(), rate)
	tr.SetMeta(id, target)
	tr.SetAnomalyDir(anomalyDir)
	fz.SetTracer(tr)
}

// Submit validates spec, builds its fuzzer (which, with its emitter, lives
// from here on) and enters it into the campaign table through the admission
// queue. It returns the campaign document in its initial state — Pending,
// or already Running when the budget had immediate headroom.
func (s *Supervisor) Submit(spec api.CampaignSpec) (api.Campaign, error) {
	if spec.Target == "" {
		return api.Campaign{}, &api.Error{StatusCode: 400, Code: api.CodeBadRequest,
			Message: "spec.target is required"}
	}
	if !targets.Has(spec.Target) {
		return api.Campaign{}, &api.Error{StatusCode: 400, Code: api.CodeUnknownTarget,
			Message: fmt.Sprintf("unknown target %q (registered: %s)",
				spec.Target, strings.Join(targets.Names(), ", "))}
	}
	corpus := filepath.Join(s.cfg.DataDir, "corpus", spec.Target)
	opts, err := FuzzOptions(fuzz.Options{CorpusDir: corpus}, spec)
	if err != nil {
		return api.Campaign{}, &api.Error{StatusCode: 400, Code: api.CodeBadRequest, Message: err.Error()}
	}
	if spec.Workers > s.cfg.WorkerBudget {
		return api.Campaign{}, &api.Error{StatusCode: 400, Code: api.CodeBadRequest,
			Message: fmt.Sprintf("spec.workers %d exceeds the server's worker budget %d",
				spec.Workers, s.cfg.WorkerBudget)}
	}
	if err := os.MkdirAll(corpus, 0o755); err != nil {
		return api.Campaign{}, &api.Error{StatusCode: 500, Code: api.CodeInternal, Message: err.Error()}
	}

	id, err := s.reserve()
	if err != nil {
		return api.Campaign{}, err
	}
	if spec.Artifacts {
		opts.ArtifactDir = filepath.Join(s.cfg.DataDir, "artifacts", id)
	}
	fz, ferr := fuzz.New(spec.Target, opts)
	if ferr != nil {
		return api.Campaign{}, &api.Error{StatusCode: 500, Code: api.CodeInternal, Message: ferr.Error()}
	}
	fz.SetEmitter(obs.NewEmitter())

	// Span tracing: the spec's explicit rate wins; zero inherits the server
	// default; a negative value (either side) disables.
	sample := s.cfg.TraceSample
	if spec.TraceSample != 0 {
		sample = spec.TraceSample
	}
	StartTracer(fz, sample, id, spec.Target, filepath.Join(s.cfg.DataDir, "anomalies", id))

	c, err := s.enter(context.Background(), id, spec, fz, func(c *campaign) {
		// The queue_wait span measures admission latency: opened here,
		// ended when the campaign is admitted (or cancelled while pending).
		c.qsp = c.tr.Start(obs.LaneSupervisor, obs.SpanQueueWait)
		s.queue = append(s.queue, c)
		s.admitLocked()
	})
	if err != nil {
		return api.Campaign{}, err
	}
	return s.document(c), nil
}

// Attach enters fz — built by the caller, with its emitter and any tracer
// already set — into the campaign table as a campaign running spec, and
// returns the context to run fz under plus the completion step to call,
// once, with RunContext's results. The step is the one every submitted
// campaign ends with: bug dedup, terminal state, emitter close and the
// persisted record. The caller is already running the campaign, so it
// skips the admission queue and its workers are charged to the budget even
// past it; queued campaigns wait until they fit again. Cancelling parent or
// DELETEing the campaign cancels the returned context.
func (s *Supervisor) Attach(parent context.Context, spec api.CampaignSpec, fz *fuzz.Fuzzer) (context.Context, func(*fuzz.Result, error), error) {
	id, err := s.reserve()
	if err != nil {
		return nil, nil, err
	}
	c, err := s.enter(parent, id, spec, fz, s.startLocked)
	if err != nil {
		return nil, nil, err
	}
	return c.ctx, func(res *fuzz.Result, err error) { s.finish(c, res, err) }, nil
}

// reserve allocates the next campaign ID, refusing while the server drains
// or when the campaign table is full.
func (s *Supervisor) reserve() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", errDraining
	}
	if len(s.campaigns) >= s.cfg.MaxCampaigns {
		return "", &api.Error{StatusCode: 409, Code: api.CodeConflict,
			Message: fmt.Sprintf("campaign table full (%d)", s.cfg.MaxCampaigns)}
	}
	s.nextID++
	return fmt.Sprintf("c%04d", s.nextID), nil
}

var errDraining = &api.Error{StatusCode: 503, Code: api.CodeDraining,
	Message: "server is draining; not accepting campaigns"}

// enter wraps fz as campaign id, Pending, and inserts it into the table;
// admit, called under s.mu, queues or starts it. The campaign's context
// derives from parent.
func (s *Supervisor) enter(parent context.Context, id string, spec api.CampaignSpec, fz *fuzz.Fuzzer, admit func(*campaign)) (*campaign, error) {
	ctx, cancel := context.WithCancel(parent)
	c := &campaign{
		id: id, spec: spec, fz: fz, em: fz.Emitter(), tr: fz.Tracer(),
		ctx: ctx, cancel: cancel, artDir: fz.ArtifactDir(),
		state: api.StatePending, created: time.Now(), done: make(chan struct{}),
	}
	s.mu.Lock()
	if s.draining { // re-check: Drain may have raced the ID allocation
		s.mu.Unlock()
		cancel()
		c.em.Close()
		return nil, errDraining
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	admit(c)
	s.mu.Unlock()
	return c, nil
}

// admitLocked pops queued campaigns while the budget has headroom. Admission
// is strictly FIFO: a wide campaign at the head blocks narrower ones behind
// it, which keeps ordering predictable (no starvation of wide campaigns).
func (s *Supervisor) admitLocked() {
	for len(s.queue) > 0 {
		c := s.queue[0]
		if s.used+workersOf(c) > s.cfg.WorkerBudget {
			return
		}
		s.queue = s.queue[1:]
		s.startLocked(c)
		go s.run(c)
	}
}

// startLocked moves c to Running and charges its workers to the budget.
func (s *Supervisor) startLocked(c *campaign) {
	s.used += workersOf(c)
	c.mu.Lock()
	c.state = api.StateRunning
	c.started = time.Now()
	c.qsp.End()
	c.mu.Unlock()
	s.wg.Add(1)
}

func workersOf(c *campaign) int {
	if c.spec.Workers <= 0 {
		return 1
	}
	return c.spec.Workers
}

// run executes one admitted campaign to completion.
func (s *Supervisor) run(c *campaign) {
	res, err := c.fz.RunContext(c.ctx)
	s.finish(c, res, err)
}

// finish is a running campaign's completion step: it finalizes the document
// (terminal state, bug inventory with cross-campaign dedup), closes the
// emitter, persists the record, releases the workers and admits successors.
func (s *Supervisor) finish(c *campaign, res *fuzz.Result, err error) {
	defer s.wg.Done()
	bugs := s.dedupBugs(c, res)

	c.mu.Lock()
	c.finished = time.Now()
	c.bugs = bugs
	switch {
	case err != nil:
		c.state = api.StateFailed
		c.err = err
	case c.ctx.Err() != nil:
		// Context cancellation ends a campaign normally: workers finished
		// their in-flight executions and res holds the partial results.
		c.state = api.StateCancelled
	default:
		c.state = api.StateDone
	}
	c.mu.Unlock()
	close(c.done)
	c.em.Close()
	s.persistCampaign(c)

	s.mu.Lock()
	s.used -= workersOf(c)
	s.admitLocked()
	s.mu.Unlock()

	if s.cfg.Retention > 0 {
		// Retention is a global budget across campaigns; GC walks the
		// artifacts root and removes the oldest bundles beyond it.
		_, _ = artifact.GC(filepath.Join(s.cfg.DataDir, "artifacts"), s.cfg.Retention, s.cfg.GCGrace)
	}
}

// dedupBugs builds the campaign's bug inventory from the judged findings and
// runs it through the cross-campaign fingerprint store: the first campaign
// to report a fingerprint on a target owns it; later reports are flagged
// Duplicate with a pointer back.
func (s *Supervisor) dedupBugs(c *campaign, res *fuzz.Result) []api.Bug {
	if res == nil || res.DB == nil {
		return nil
	}
	var bugs []api.Bug
	for _, j := range res.DB.Inconsistencies() {
		if j.Status != core.StatusBug {
			continue
		}
		kind := "intra"
		if j.Kind == core.KindInter {
			kind = "inter"
		}
		st := site.Lookup(j.StoreSite).String()
		bugs = append(bugs, api.Bug{
			Fingerprint: artifact.FingerprintInconsistency(j.Inconsistency),
			Kind:        kind,
			Site:        st,
			Summary: fmt.Sprintf("durable side effect at %s based on non-persisted data (%s flow)",
				st, j.Flow),
		})
	}
	for _, j := range res.DB.Syncs() {
		if j.Status != core.StatusBug {
			continue
		}
		st := site.Lookup(j.Site).String()
		bugs = append(bugs, api.Bug{
			Fingerprint: artifact.FingerprintSync(j.SyncInconsistency),
			Kind:        "sync",
			Site:        st,
			Summary:     fmt.Sprintf("sync variable %s persisted at %s", j.Var.Name, st),
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	byFP := s.seen[c.spec.Target]
	if byFP == nil {
		byFP = map[string]string{}
		s.seen[c.spec.Target] = byFP
	}
	for i := range bugs {
		if first, ok := byFP[bugs[i].Fingerprint]; ok && first != c.id {
			bugs[i].Duplicate = true
			bugs[i].FirstReportedBy = first
		} else if !ok {
			byFP[bugs[i].Fingerprint] = c.id
		}
	}
	return bugs
}

// document renders the campaign's current api.Campaign.
func (s *Supervisor) document(c *campaign) api.Campaign {
	if c.restored != nil {
		// A restored campaign serves its persisted final document; only the
		// artifact count is recomputed, since retention GC may have run
		// since the record was written.
		doc := *c.restored
		doc.Bugs = append([]api.Bug(nil), c.restored.Bugs...)
		if c.artDir != "" {
			doc.ArtifactCount = 0
			if names, err := listBundles(c.artDir); err == nil {
				doc.ArtifactCount = len(names)
			}
		}
		return doc
	}
	c.mu.Lock()
	state := c.state
	cerr := c.err
	created, started, finished := c.created, c.started, c.finished
	bugs := append([]api.Bug(nil), c.bugs...)
	c.mu.Unlock()
	if state == api.StateRunning && c.ctx.Err() != nil {
		state = api.StateDraining
	}
	st := c.fz.Snapshot()
	st.State = string(state)
	doc := api.Campaign{
		ID: c.id, Spec: c.spec, State: state,
		Created: created, Started: started, Finished: finished,
		Stats: st, Bugs: bugs,
	}
	if cerr != nil {
		doc.Error = cerr.Error()
	}
	if c.artDir != "" {
		if names, err := listBundles(c.artDir); err == nil {
			doc.ArtifactCount = len(names)
		}
	}
	return doc
}

// get looks a campaign up by ID.
func (s *Supervisor) get(id string) (*campaign, error) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return nil, &api.Error{StatusCode: 404, Code: api.CodeNotFound,
			Message: fmt.Sprintf("no campaign %q", id)}
	}
	return c, nil
}

// Get returns one campaign's document.
func (s *Supervisor) Get(id string) (api.Campaign, error) {
	c, err := s.get(id)
	if err != nil {
		return api.Campaign{}, err
	}
	return s.document(c), nil
}

// List returns every tracked campaign in submission order.
func (s *Supervisor) List() []api.Campaign {
	s.mu.Lock()
	cs := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]api.Campaign, len(cs))
	for i, c := range cs {
		out[i] = s.document(c)
	}
	return out
}

// Cancel stops a campaign. A pending campaign leaves the queue and settles
// Cancelled immediately; a running one drains (workers finish their
// in-flight executions, partial results are kept). Cancelling a terminal
// campaign is a conflict.
func (s *Supervisor) Cancel(id string) (api.Campaign, error) {
	c, err := s.get(id)
	if err != nil {
		return api.Campaign{}, err
	}

	s.mu.Lock()
	c.mu.Lock()
	switch {
	case c.state == api.StatePending:
		for i, q := range s.queue {
			if q == c {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		c.state = api.StateCancelled
		c.finished = time.Now()
		c.qsp.End()
		c.mu.Unlock()
		s.mu.Unlock()
		close(c.done)
		c.cancel()
		c.em.Close()
		s.persistCampaign(c)
	case c.state.Terminal():
		state := c.state
		c.mu.Unlock()
		s.mu.Unlock()
		return api.Campaign{}, &api.Error{StatusCode: 409, Code: api.CodeConflict,
			Message: fmt.Sprintf("campaign %s is already %s", id, state)}
	default: // running (or already draining)
		c.mu.Unlock()
		s.mu.Unlock()
		c.cancel()
	}
	return s.document(c), nil
}

// Info returns the server document.
func (s *Supervisor) Info() api.ServerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return api.ServerInfo{
		Version:      api.Version,
		Targets:      targets.Names(),
		WorkerBudget: s.cfg.WorkerBudget,
		WorkersInUse: s.used,
		Campaigns:    len(s.campaigns),
		Draining:     s.draining,
	}
}

// Draining reports whether Drain has started.
func (s *Supervisor) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the supervisor down: new submissions are rejected,
// queued campaigns are cancelled, running campaigns' contexts are cancelled
// so their workers stop at the next inter-execution check, and Drain waits —
// bounded by DrainTimeout and ctx — for them to finalize (partial results
// and artifacts persisted). It returns nil when everything drained, or the
// timeout/context error with campaigns still in flight.
func (s *Supervisor) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	pending := s.queue
	s.queue = nil
	var running []*campaign
	for _, id := range s.order {
		c := s.campaigns[id]
		c.mu.Lock()
		if c.state == api.StateRunning {
			running = append(running, c)
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()

	for _, c := range pending {
		c.mu.Lock()
		if c.state != api.StatePending { // a concurrent Cancel won the race
			c.mu.Unlock()
			continue
		}
		c.state = api.StateCancelled
		c.finished = time.Now()
		c.qsp.End()
		c.mu.Unlock()
		close(c.done)
		c.cancel()
		c.em.Close()
		s.persistCampaign(c)
	}
	for _, c := range running {
		c.cancel()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	defer s.sampler.Close()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return fmt.Errorf("serve: drain timed out after %v", s.cfg.DrainTimeout)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// listBundles names the artifact bundles under dir, oldest first (the
// writer numbers them, so lexical order is chronological).
func listBundles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		// Dot-prefixed directories are the artifact writer's staging areas:
		// a bundle mid-write, not yet renamed into place.
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), artifact.BugFile)); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
