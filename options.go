package pmrace

import (
	"io"
	"time"

	"github.com/pmrace-go/pmrace/internal/obs"
)

// CampaignOption configures a campaign created with NewCampaign. The
// functional options cover the public surface; zero values select the
// evaluation defaults, consolidated in one place (fuzz.Options
// withDefaults), so documentation and behaviour cannot drift.
type CampaignOption func(*campaignConfig)

type campaignConfig struct {
	opts             Options
	sinks            []obs.Sink
	progress         io.Writer
	progressInterval time.Duration
	eventBuf         int
	httpAddr         string
	traceSample      int
}

// WithWorkers sets the number of concurrent fuzzing workers.
func WithWorkers(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.Workers = n }
}

// WithThreads sets the number of driver threads per execution.
func WithThreads(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.Threads = n }
}

// WithMode selects the interleaving exploration strategy.
func WithMode(m ExploreMode) CampaignOption {
	return func(c *campaignConfig) { c.opts.Mode = m }
}

// WithBudget bounds the campaign: maxExecs executions or wall of elapsed
// time, whichever is hit first. A zero value leaves that bound at its
// default (200 executions / 30s).
func WithBudget(maxExecs int, wall time.Duration) CampaignOption {
	return func(c *campaignConfig) {
		c.opts.MaxExecs = maxExecs
		c.opts.Duration = wall
	}
}

// WithSeed seeds all campaign randomness for reproducibility.
func WithSeed(seed int64) CampaignOption {
	return func(c *campaignConfig) { c.opts.Seed = seed }
}

// WithKeySpace sets the workload key-space size.
func WithKeySpace(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.KeySpace = n }
}

// WithOpsPerSeed sets the operation count of generated seeds.
func WithOpsPerSeed(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.OpsPerSeed = n }
}

// WithCorpusDir loads the initial corpus from dir and persists
// coverage-improving seeds back into it.
func WithCorpusDir(dir string) CampaignOption {
	return func(c *campaignConfig) { c.opts.CorpusDir = dir }
}

// WithProtocolTraffic switches the campaign's workload from synthetic
// operation vectors to real memcached text-protocol byte streams: seeds are
// per-connection byte streams (with pipelining, malformed frames and
// mid-request crash points) parsed by the wire front-end, and the parsed
// commands enter the target through the same dispatch as synthetic
// operations, so bug fingerprints are shared between the two modes (see
// DESIGN.md §16).
func WithProtocolTraffic() CampaignOption {
	return func(c *campaignConfig) { c.opts.Protocol = true }
}

// WithEADR models battery-backed caches (paper §6.6).
func WithEADR() CampaignOption {
	return func(c *campaignConfig) { c.opts.EADR = true }
}

// WithoutCheckpoints disables the in-memory pool checkpoints (Figure 10's
// ablation).
func WithoutCheckpoints() CampaignOption {
	return func(c *campaignConfig) { c.opts.NoCheckpoints = true }
}

// WithMutator overrides the default operation mutator.
func WithMutator(m Mutator) CampaignOption {
	return func(c *campaignConfig) { c.opts.Mutator = m }
}

// WithWhitelist adds developer-specified benign patterns on top of the
// default (mini-PMDK transactional allocation).
func WithWhitelist(entries ...string) CampaignOption {
	return func(c *campaignConfig) {
		c.opts.ExtraWhitelist = append(c.opts.ExtraWhitelist, entries...)
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

// WithProgressInterval adjusts the progress-line refresh interval (mostly
// for tests; the default is one second).
func WithProgressInterval(d time.Duration) CampaignOption {
	return func(c *campaignConfig) { c.progressInterval = d }
}

// WithEventBuffer sets the Events() channel capacity (default 4096). When
// the consumer falls behind, the oldest buffered event is shed — sinks are
// the lossless path.
func WithEventBuffer(n int) CampaignOption {
	return func(c *campaignConfig) { c.eventBuf = n }
}

// WithHTTPAddr serves live campaign introspection on addr (":0" picks a free
// port; Campaign.HTTPAddr returns the bound address): Prometheus /metrics,
// /status snapshots, an SSE /events stream, /healthz and /debug/pprof. The
// server lives for the campaign's duration.
func WithHTTPAddr(addr string) CampaignOption {
	return func(c *campaignConfig) { c.httpAddr = addr }
}

// WithTracing enables span tracing: the campaign records a timeline of
// supervisor, worker, validation and crash-enumeration spans into a bounded
// flight recorder, exports it as Chrome trace-event JSON (Perfetto-viewable
// via the introspection server's /trace endpoint or `pmrace trace`), and
// dumps the recorder on anomalies. sampleN selects which executions record
// per-exec spans (every Nth; campaign-level and validation spans are always
// on); sampleN <= 0 picks the default rate (every 8th execution).
func WithTracing(sampleN int) CampaignOption {
	return func(c *campaignConfig) {
		if sampleN <= 0 {
			sampleN = obs.DefaultTraceSample
		}
		c.traceSample = sampleN
	}
}

// WithHangTimeout bounds each thread's lock acquisition during pre-failure
// execution; a thread exceeding it is declared hung (default 80ms,
// simulation-scaled from the paper's timings).
func WithHangTimeout(d time.Duration) CampaignOption {
	return func(c *campaignConfig) { c.opts.HangTimeout = d }
}

// WithRedundantThreshold sets the dynamic-occurrence count above which a
// redundant-store site is reported as an "Other" finding (default 100).
func WithRedundantThreshold(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.RedundantThreshold = n }
}

// WithExecsPerInterleaving sets the execution-tier repetition count: how
// many times each seed (and each scheduled interleaving) is executed
// (default 2).
func WithExecsPerInterleaving(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.ExecsPerInterleaving = n }
}

// WithMaxInterleavingsPerSeed bounds how many interleaving-tier queue
// entries are scheduled per seed iteration (default 6).
func WithMaxInterleavingsPerSeed(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.MaxInterleavingsPerSeed = n }
}

// WithoutInterleavingTier ablates interleaving-tier exploration ("w/o IE",
// Figure 9).
func WithoutInterleavingTier() CampaignOption {
	return func(c *campaignConfig) { c.opts.DisableInterleavingTier = true }
}

// WithoutSeedTier ablates seed-tier evolution ("w/o SE", Figure 9): the
// corpus never grows beyond the initial seeds.
func WithoutSeedTier() CampaignOption {
	return func(c *campaignConfig) { c.opts.DisableSeedTier = true }
}

// WithMaxCrashStates caps the crash states enumerated and validated per
// finding. The default (1) reproduces the paper's single-adversarial-image
// validation; higher values add the persisted-only baseline and one state
// per flushed-but-unfenced cache line, and a finding is a bug if any
// enumerated state fails recovery.
func WithMaxCrashStates(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.MaxCrashStates = n }
}

// WithValidationWorkers sizes the asynchronous post-failure validation pool
// (default 2): findings queue to it instead of stalling the fuzzing workers
// during recovery runs.
func WithValidationWorkers(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.ValidationWorkers = n }
}

// WithValidationWallTimeout bounds each recovery run's wall-clock time in
// post-failure validation. Recovery exceeding it — an uninstrumented spin, a
// sleep, a runaway loop the spin-lock hang detector cannot see — is abandoned
// and judged a bug with RecoveryHung.
func WithValidationWallTimeout(d time.Duration) CampaignOption {
	return func(c *campaignConfig) { c.opts.ValidationWallTimeout = d }
}

// WithInlineValidation validates findings synchronously on the fuzzing worker
// that discovered them instead of the asynchronous pool, keeping the event
// stream deterministic for single-worker campaigns (at the cost of stalling
// the worker during recovery runs).
func WithInlineValidation() CampaignOption {
	return func(c *campaignConfig) { c.opts.InlineValidation = true }
}

// WithAliasHints seeds the interleaving queue with statically inferred
// load/store alias pairs (from `pmvet -alias`, loaded via LoadAliasHints).
// Queue entries whose observed sites cover a hinted pair are explored
// before any purely dynamically prioritized entry.
func WithAliasHints(hints []AliasHint) CampaignOption {
	return func(c *campaignConfig) { c.opts.AliasHints = hints }
}

// WithArtifacts writes a forensic bundle — bug report with taint lineage,
// finding seed, interleaving schedule, PM access trace and dirty-word diff —
// into a numbered subdirectory of dir for every confirmed bug. Bundles
// replay with `pmrace -artifact <bundle>`.
func WithArtifacts(dir string) CampaignOption {
	return func(c *campaignConfig) { c.opts.ArtifactDir = dir }
}

// WithAllArtifacts extends WithArtifacts to every deduplicated finding,
// including validated and whitelisted false positives — the forensic mode
// for auditing the validator itself. It requires WithArtifacts: a campaign
// configured with WithAllArtifacts but no artifact directory fails at start
// rather than silently dropping the bundles.
func WithAllArtifacts() CampaignOption {
	return func(c *campaignConfig) { c.opts.ArtifactAll = true }
}
