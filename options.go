package pmrace

import (
	"io"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// CampaignOption configures a campaign created with NewCampaign. The
// functional options cover the public surface; zero values select the
// evaluation defaults, consolidated in one place (fuzz.Options
// withDefaults), so documentation and behaviour cannot drift.
type CampaignOption func(*campaignConfig)

// campaignConfig holds every knob pmraced's campaign spec shares in spec and
// the rest in base; serve.FuzzOptions combines them, as for a submission.
type campaignConfig struct {
	spec     api.CampaignSpec
	base     fuzz.Options
	sinks    []obs.Sink
	progress io.Writer
	eventBuf int
	httpAddr string
}

// WithSpec sets every knob pmraced's campaign spec carries at once, as a
// submission of spec would: options before it that set a spec field are
// overwritten, options after it adjust it. NewCampaign's target argument
// replaces spec.Target, and spec.Artifacts follows WithArtifacts, which
// names the bundle directory the spec has no field for.
func WithSpec(spec api.CampaignSpec) CampaignOption {
	return func(c *campaignConfig) { c.spec = spec }
}

// WithWorkers sets the number of concurrent fuzzing workers.
func WithWorkers(n int) CampaignOption {
	return func(c *campaignConfig) { c.spec.Workers = n }
}

// WithThreads sets the number of driver threads per execution.
func WithThreads(n int) CampaignOption {
	return func(c *campaignConfig) { c.spec.Threads = n }
}

// WithMode selects the interleaving exploration strategy.
func WithMode(m ExploreMode) CampaignOption {
	return func(c *campaignConfig) { c.spec.Mode = m.Spelling() }
}

// WithBudget bounds the campaign: maxExecs executions or wall of elapsed
// time, whichever is hit first. A zero value leaves that bound at its
// default (200 executions / 30s).
func WithBudget(maxExecs int, wall time.Duration) CampaignOption {
	return func(c *campaignConfig) {
		c.spec.MaxExecs = maxExecs
		c.spec.Duration = wall
	}
}

// WithSeed seeds all campaign randomness for reproducibility.
func WithSeed(seed int64) CampaignOption {
	return func(c *campaignConfig) { c.spec.Seed = seed }
}

// WithKeySpace sets the workload key-space size.
func WithKeySpace(n int) CampaignOption {
	return func(c *campaignConfig) { c.spec.KeySpace = n }
}

// WithOpsPerSeed sets the operation count of generated seeds.
func WithOpsPerSeed(n int) CampaignOption {
	return func(c *campaignConfig) { c.spec.OpsPerSeed = n }
}

// WithCorpusDir loads the initial corpus from dir and persists
// coverage-improving seeds back into it.
func WithCorpusDir(dir string) CampaignOption {
	return func(c *campaignConfig) { c.base.CorpusDir = dir }
}

// WithProtocolTraffic switches the campaign's workload from synthetic
// operation vectors to real memcached text-protocol byte streams: seeds are
// per-connection byte streams (with pipelining, malformed frames and
// mid-request crash points) parsed by the wire front-end, and the parsed
// commands enter the target through the same dispatch as synthetic
// operations, so bug fingerprints are shared between the two modes (see
// DESIGN.md §16).
func WithProtocolTraffic() CampaignOption {
	return func(c *campaignConfig) { c.spec.Protocol = true }
}

// WithEADR models battery-backed caches (paper §6.6).
func WithEADR() CampaignOption {
	return func(c *campaignConfig) { c.spec.EADR = true }
}

// WithWhitelist adds developer-specified benign patterns on top of the
// default (mini-PMDK transactional allocation).
func WithWhitelist(entries ...string) CampaignOption {
	return func(c *campaignConfig) {
		c.base.ExtraWhitelist = append(c.base.ExtraWhitelist, entries...)
	}
}

// WithSink attaches an event sink (JSONL trace writer, progress line,
// collector, ...). Sinks receive every event synchronously and never drop.
func WithSink(s Sink) CampaignOption {
	return func(c *campaignConfig) { c.sinks = append(c.sinks, s) }
}

// WithJSONTrace streams the campaign's event trace to w as JSON lines, one
// event per line.
func WithJSONTrace(w io.Writer) CampaignOption {
	return WithSink(obs.NewJSONLSink(w))
}

// WithProgress renders a 1 Hz human status line (execs, execs/s, coverage,
// bugs) to w while the campaign runs.
func WithProgress(w io.Writer) CampaignOption {
	return func(c *campaignConfig) { c.progress = w }
}

// WithEventBuffer sets the Events() channel capacity (default 4096). When
// the consumer falls behind, the oldest buffered event is shed — sinks are
// the lossless path.
func WithEventBuffer(n int) CampaignOption {
	return func(c *campaignConfig) { c.eventBuf = n }
}

// WithHTTPAddr serves the campaign on addr (":0" picks a free port;
// Campaign.HTTPAddr returns the bound address) through pmraced's handlers,
// as campaign c0001 of a one-campaign server: /healthz, /readyz, /status,
// the labelled /metrics, /debug/pprof, and /api/v1/campaigns/c0001 with its
// /events, /trace and /artifacts routes. A DELETE there cancels the
// campaign. The server lives for the campaign's duration.
func WithHTTPAddr(addr string) CampaignOption {
	return func(c *campaignConfig) { c.httpAddr = addr }
}

// WithTracing enables span tracing: the campaign records a timeline of
// supervisor, worker, validation and crash-enumeration spans into a bounded
// flight recorder, exports it as Chrome trace-event JSON (Perfetto-viewable
// via the API's /trace route or `pmrace trace`), and snapshots it into each
// artifact bundle's spans.json. sampleN selects which executions record
// per-exec spans (every Nth; campaign-level and validation spans are always
// on); sampleN <= 0 picks the default rate (every 8th execution).
func WithTracing(sampleN int) CampaignOption {
	return func(c *campaignConfig) {
		if sampleN <= 0 {
			sampleN = obs.DefaultTraceSample
		}
		c.spec.TraceSample = sampleN
	}
}

// WithMaxCrashStates caps the crash states enumerated and validated per
// finding. The default (1) reproduces the paper's single-adversarial-image
// validation; higher values add the persisted-only baseline and one state
// per flushed-but-unfenced cache line, and a finding is a bug if any
// enumerated state fails recovery.
func WithMaxCrashStates(n int) CampaignOption {
	return func(c *campaignConfig) { c.spec.MaxCrashStates = n }
}

// WithArtifacts writes a forensic bundle — bug report with taint lineage,
// finding seed, interleaving schedule, the finding's interleaving and
// dirty-word diff — into a numbered subdirectory of dir for every confirmed
// bug. Bundles replay with `pmrace -artifact <bundle>`.
func WithArtifacts(dir string) CampaignOption {
	return func(c *campaignConfig) { c.base.ArtifactDir = dir }
}

// WithAllArtifacts extends WithArtifacts to every deduplicated finding,
// including validated and whitelisted false positives — the forensic mode
// for auditing the validator itself. It requires WithArtifacts: NewCampaign
// rejects WithAllArtifacts without an artifact directory rather than
// silently dropping the bundles.
func WithAllArtifacts() CampaignOption {
	return func(c *campaignConfig) { c.spec.ArtifactsAll = true }
}
