package obs

import "time"

// Kind identifies an event type; the string doubles as the JSONL "kind"
// discriminator.
type Kind string

// The event taxonomy.
const (
	// KindPhaseChange marks a campaign lifecycle transition
	// (init -> fuzzing -> done).
	KindPhaseChange Kind = "phase_change"
	// KindExecDone is emitted after every execution with its coverage
	// delta and finding counts.
	KindExecDone Kind = "exec_done"
	// KindSeedAccepted is emitted when a seed enters the corpus: the
	// initial seeds, corpus-directory imports, and every seed retained
	// because an execution improved coverage.
	KindSeedAccepted Kind = "seed_accepted"
	// KindInterleavingScheduled is emitted when the interleaving tier
	// pops a priority-queue entry and schedules PM-aware executions
	// around its address.
	KindInterleavingScheduled Kind = "interleaving_scheduled"
	// KindInconsistencyFound is emitted by the detection layer when a
	// new (deduplicated) inconsistency enters the result database.
	KindInconsistencyFound Kind = "inconsistency_found"
	// KindValidationVerdict is emitted by post-failure validation for
	// every judged finding.
	KindValidationVerdict Kind = "validation_verdict"
	// KindBugConfirmed is emitted when a finding survives post-failure
	// validation and is recorded as a bug.
	KindBugConfirmed Kind = "bug_confirmed"
	// KindCampaignDone carries the final Stats snapshot; it is always
	// the last event of a campaign.
	KindCampaignDone Kind = "campaign_done"
)

// EventMeta is the envelope every event carries: a campaign-unique sequence
// number and the elapsed time since campaign start. The fields are stamped
// by the Emitter; JSONL encoding hoists them into the envelope, so they are
// excluded from the payload ("-" tags).
type EventMeta struct {
	Seq uint64        `json:"-"`
	At  time.Duration `json:"-"`
}

// Meta returns the embedded envelope for in-place stamping.
func (m *EventMeta) Meta() *EventMeta { return m }

// Event is one typed campaign event.
type Event interface {
	Kind() Kind
	Meta() *EventMeta
}

// PhaseChange marks a campaign lifecycle transition.
type PhaseChange struct {
	EventMeta
	Phase string `json:"phase"`
	Prev  string `json:"prev,omitempty"`
}

// Kind implements Event.
func (*PhaseChange) Kind() Kind { return KindPhaseChange }

// ExecDone reports one finished execution.
type ExecDone struct {
	EventMeta
	// Exec is the global 1-based execution ordinal.
	Exec int `json:"exec"`
	// Worker is the fuzzing worker that ran it.
	Worker int `json:"worker"`
	// NewBits counts coverage bits this execution set first.
	NewBits int `json:"new_bits"`
	// BranchCov/AliasCov are the global coverage counts afterwards.
	BranchCov int `json:"branch_cov"`
	AliasCov  int `json:"alias_cov"`
	// Candidates/Inconsistencies/Syncs count this execution's raw
	// findings (before deduplication).
	Candidates      int `json:"candidates"`
	Inconsistencies int `json:"inconsistencies"`
	Syncs           int `json:"syncs"`
	// Duration is the wall-clock cost of the execution.
	Duration time.Duration `json:"duration_ns"`
}

// Kind implements Event.
func (*ExecDone) Kind() Kind { return KindExecDone }

// SeedAccepted reports a seed entering the corpus.
type SeedAccepted struct {
	EventMeta
	// Origin is "initial", "corpus-dir" or "improving".
	Origin string `json:"origin"`
	// Ops is the seed's operation count.
	Ops int `json:"ops"`
	// CorpusSize is the corpus size after acceptance.
	CorpusSize int `json:"corpus_size"`
}

// Kind implements Event.
func (*SeedAccepted) Kind() Kind { return KindSeedAccepted }

// InterleavingScheduled reports one interleaving-tier exploration target.
type InterleavingScheduled struct {
	EventMeta
	Worker int `json:"worker"`
	// Addr is the hot shared PM address whose loads become sync points.
	Addr uint64 `json:"addr"`
	// Priority is the entry's access-frequency priority.
	Priority int `json:"priority"`
	// Skip is the Pitfall-3 skip count applied to its cond_waits.
	Skip int `json:"skip"`
}

// Kind implements Event.
func (*InterleavingScheduled) Kind() Kind { return KindInterleavingScheduled }

// InconsistencyFound reports a new deduplicated finding entering the result
// database. Class is "inter", "intra" or "sync"; the site fields are
// human-readable file:line locations.
type InconsistencyFound struct {
	EventMeta
	Class     string `json:"class"`
	WriteSite string `json:"write_site,omitempty"`
	ReadSite  string `json:"read_site,omitempty"`
	StoreSite string `json:"store_site,omitempty"`
	// Var is the annotated variable name for sync inconsistencies.
	Var string `json:"var,omitempty"`
	// Flow is "value" or "address" for inter/intra findings.
	Flow string `json:"flow,omitempty"`
}

// Kind implements Event.
func (*InconsistencyFound) Kind() Kind { return KindInconsistencyFound }

// ValidationVerdict reports one post-failure validation outcome.
type ValidationVerdict struct {
	EventMeta
	Class string `json:"class"`
	// Status is the verdict: "bug", "validated-fp" or "whitelisted-fp".
	Status string `json:"status"`
	// RecoveryHung reports that the recovery run itself hung.
	RecoveryHung bool `json:"recovery_hung,omitempty"`
	// CrashStates is the number of enumerated crash states the finding was
	// judged against (zero for whitelisted/external findings that skip
	// recovery).
	CrashStates int `json:"crash_states,omitempty"`
	// Latency is the wall-clock cost of the validation run.
	Latency time.Duration `json:"latency_ns"`
}

// Kind implements Event.
func (*ValidationVerdict) Kind() Kind { return KindValidationVerdict }

// BugConfirmed reports a finding that survived post-failure validation.
type BugConfirmed struct {
	EventMeta
	Class string `json:"class"`
	// Site is the grouping site (dirty write site, or sync-update site).
	Site string `json:"site"`
	// Var is the variable name for sync bugs.
	Var     string `json:"var,omitempty"`
	Summary string `json:"summary,omitempty"`
}

// Kind implements Event.
func (*BugConfirmed) Kind() Kind { return KindBugConfirmed }

// CampaignDone carries the terminal statistics; its Stats equal the
// campaign's returned Result aggregates.
type CampaignDone struct {
	EventMeta
	Stats Stats `json:"stats"`
}

// Kind implements Event.
func (*CampaignDone) Kind() Kind { return KindCampaignDone }

// Stats is a point-in-time statistics snapshot, also carried by the
// terminal CampaignDone event.
type Stats struct {
	Target string `json:"target"`
	Mode   string `json:"mode"`
	// State is the campaign lifecycle state ("pending", "running",
	// "draining", "done", "cancelled", "failed") — the typed api.State
	// enum as a string. The fuzzer itself leaves it empty; the campaign
	// wrappers (pmrace.Campaign, pmraced) stamp it into the snapshots
	// they serve, replacing the old ad-hoc phase strings.
	State string `json:"state,omitempty"`
	// Execs and Seeds mirror Result.Execs/Result.Seeds.
	Execs int `json:"execs"`
	Seeds int `json:"seeds"`
	// BranchCov/AliasCov are global coverage bit counts.
	BranchCov int `json:"branch_cov"`
	AliasCov  int `json:"alias_cov"`
	// Inconsistencies counts deduplicated findings (inter+intra+sync).
	Inconsistencies int `json:"inconsistencies"`
	// Bugs counts unique bugs (the paper's §6.2 grouping).
	Bugs        int           `json:"bugs"`
	ExecsPerSec float64       `json:"execs_per_sec"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	// Interleavings counts interleaving-tier entries actually scheduled;
	// InterleavingsPruned counts entries dropped by schedule-equivalence
	// pruning (their class had already run without a novel outcome).
	Interleavings       int64 `json:"interleavings"`
	InterleavingsPruned int64 `json:"interleavings_pruned"`
	// CheckpointRestores counts dirty-line pool restores served by the
	// in-memory checkpoint (the fork-server substitute).
	CheckpointRestores int64 `json:"checkpoint_restores"`
	// Validations counts post-failure validation runs.
	Validations int64 `json:"validations"`
	// EventsDropped counts events the subscriber channels shed because
	// a consumer fell behind (sinks never drop).
	EventsDropped int64 `json:"events_dropped"`
}
