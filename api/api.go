// Package api is the versioned wire contract of the pmraced control plane.
//
// Every document that crosses the REST boundary — campaign specifications,
// campaign snapshots, bug summaries, artifact listings, error envelopes — is
// defined here once and consumed by both sides: internal/serve marshals these
// types out of the server and package client unmarshals them back, so the
// two cannot drift. The in-process session API shares the same lifecycle
// enum (pmrace.CampaignState is an alias of State), which keeps the REST
// `state` field and Campaign.State() spelling-identical.
//
// # Versioning policy
//
// The contract is versioned by URL prefix (BasePath, currently /api/v1).
// Within a version, changes are strictly additive: new optional request
// fields (absent means default), new response fields (clients must ignore
// unknown fields — encoding/json does), new endpoints. Renaming or removing
// a field, changing a field's type or semantics, or changing an error code
// requires a new version prefix served alongside the old one. Error
// responses always carry an Error envelope with a machine-readable Code;
// codes are append-only.
//
// # Endpoints (v1)
//
//	GET    /api/v1                          server info (ServerInfo)
//	GET    /api/v1/campaigns                list campaigns ([]Campaign)
//	POST   /api/v1/campaigns                submit (CampaignSpec -> Campaign)
//	GET    /api/v1/campaigns/{id}           one campaign (Campaign)
//	DELETE /api/v1/campaigns/{id}           cancel (Campaign)
//	GET    /api/v1/campaigns/{id}/events    Server-Sent Events stream
//	GET    /api/v1/campaigns/{id}/artifacts bundle listing ([]ArtifactInfo)
//	GET    /api/v1/campaigns/{id}/artifacts/{name}  one bundle (ArtifactBundle)
//	GET    /api/v1/campaigns/{id}/trace     span timeline (Chrome trace-event JSON)
//
// The SSE stream frames one event per record: `event:` carries the kind,
// `id:` the emitter sequence number and `data:` the JSONL envelope ({kind,
// seq, at_ms, data}); obs.DecodeEvent rebuilds the typed event from (kind,
// data). `pmrace -http` serves a local campaign through the same handlers,
// as campaign c0001.
package api

import (
	"fmt"
	"time"

	"github.com/pmrace-go/pmrace/internal/obs"
)

// Version is the current API version; BasePath prefixes every endpoint.
const (
	Version  = "v1"
	BasePath = "/api/" + Version
)

// Stats is the live statistics snapshot embedded in Campaign documents; it
// is the same document a single campaign's /status endpoint serves.
type Stats = obs.Stats

// Event is one typed campaign event, as streamed over SSE and decoded by
// obs.DecodeEvent.
type Event = obs.Event

// State is the campaign lifecycle. It is shared verbatim between the
// in-process API (pmrace.Campaign.State) and the REST `state` field.
type State string

// The campaign lifecycle. In-process campaigns start immediately, so they
// are born Running; under pmraced a campaign is Pending while queued for
// worker-budget headroom.
const (
	// StatePending: accepted, waiting for worker budget.
	StatePending State = "pending"
	// StateRunning: fuzzing workers are executing.
	StateRunning State = "running"
	// StateDraining: cancellation requested; in-flight executions are
	// finishing and partial results are being persisted.
	StateDraining State = "draining"
	// StateDone: budget exhausted, results final.
	StateDone State = "done"
	// StateCancelled: cancelled before budget exhaustion; partial results
	// are final.
	StateCancelled State = "cancelled"
	// StateFailed: the campaign aborted with an error (see Campaign.Error).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final: no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// CampaignSpec is the submit request: what to fuzz and with which budget.
// Zero values select the engine's evaluation defaults, the same defaults the
// functional options leave in place.
type CampaignSpec struct {
	// Target is the registered PM system to fuzz. Required.
	Target string `json:"target"`
	// Mode selects exploration: "pmrace" (default), "delay" or "none".
	Mode string `json:"mode,omitempty"`
	// Workers is the number of fuzzing workers, charged against the
	// server's worker budget for the campaign's lifetime (default 1).
	Workers int `json:"workers,omitempty"`
	// Threads is the driver-thread count per execution (default 4).
	Threads int `json:"threads,omitempty"`
	// MaxExecs / Duration bound the campaign (defaults 200 / 30s);
	// whichever is hit first ends it. Duration is nanoseconds on the wire.
	MaxExecs int           `json:"max_execs,omitempty"`
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Seed fixes all campaign randomness for reproducibility.
	Seed int64 `json:"seed,omitempty"`
	// KeySpace / OpsPerSeed shape the generated workload.
	KeySpace   int `json:"key_space,omitempty"`
	OpsPerSeed int `json:"ops_per_seed,omitempty"`
	// Protocol fuzzes through memcached text-protocol byte streams instead
	// of synthetic operation vectors (the wire front-end mode).
	Protocol bool `json:"protocol,omitempty"`
	// MaxCrashStates caps crash states validated per finding.
	MaxCrashStates int `json:"max_crash_states,omitempty"`
	// EADR models battery-backed caches.
	EADR bool `json:"eadr,omitempty"`
	// Artifacts requests a forensic bundle per confirmed bug, fetchable
	// through the artifacts endpoints; ArtifactsAll extends that to every
	// judged finding.
	Artifacts    bool `json:"artifacts,omitempty"`
	ArtifactsAll bool `json:"artifacts_all,omitempty"`
	// TraceSample overrides the server's span-sampling rate for this
	// campaign: 0 keeps the server default, N>0 samples every Nth
	// execution's spans, negative disables tracing entirely. A local
	// campaign (pmrace -http) has no server default: 0 means tracing is off.
	TraceSample int `json:"trace_sample,omitempty"`
}

// Campaign is one campaign as the control plane reports it.
type Campaign struct {
	// ID is the server-assigned campaign identifier.
	ID   string       `json:"id"`
	Spec CampaignSpec `json:"spec"`
	// State is the lifecycle state; Error is set when State is "failed".
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Created/Started/Finished stamp the lifecycle transitions; Started
	// and Finished are zero while the campaign has not reached them.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Stats is the live snapshot (terminal campaigns: the final one).
	Stats Stats `json:"stats"`
	// Bugs lists confirmed findings once the campaign is terminal, one per
	// fingerprint; stats.bugs counts the groups they fall into (paper
	// §6.2), so several findings can share one group site. Findings whose
	// fingerprint an earlier campaign on the same target already reported
	// are flagged Duplicate by the shared cross-campaign dedup store.
	Bugs []Bug `json:"bugs,omitempty"`
	// ArtifactCount is the number of forensic bundles written so far.
	ArtifactCount int `json:"artifact_count,omitempty"`
}

// Bug is one confirmed finding in a campaign's inventory. Its kind, site
// and summary are the class, site and summary of the finding's
// bug_confirmed event and of its bundle's bug.json.
type Bug struct {
	// Fingerprint is the cross-process finding identity (the same string
	// artifact bundles and replay match on).
	Fingerprint string `json:"fingerprint"`
	// Kind is "inter", "intra" or "sync".
	Kind string `json:"kind"`
	// Site is the group site the finding counts under: the non-persisted
	// write site (inter/intra), or the sync-update site.
	Site string `json:"site"`
	// Summary is the one-sentence human report.
	Summary string `json:"summary"`
	// Duplicate marks a bug first reported by an earlier campaign on the
	// same target (FirstReportedBy names it).
	Duplicate       bool   `json:"duplicate,omitempty"`
	FirstReportedBy string `json:"first_reported_by,omitempty"`
}

// ServerInfo is the GET /api/v1 document.
type ServerInfo struct {
	Version string `json:"version"`
	// Targets lists the registered PM systems this server can fuzz.
	Targets []string `json:"targets"`
	// WorkerBudget / WorkersInUse describe the shared execution capacity.
	WorkerBudget int `json:"worker_budget"`
	WorkersInUse int `json:"workers_in_use"`
	// Campaigns counts campaigns the server currently tracks (all states).
	Campaigns int `json:"campaigns"`
	// Draining reports a server in graceful shutdown: submissions are
	// rejected, running campaigns are finishing.
	Draining bool `json:"draining"`
}

// ArtifactInfo is one row of a campaign's bundle listing.
type ArtifactInfo struct {
	// Name is the bundle directory name ("0001-inter", ...), the handle
	// the fetch endpoint takes.
	Name string `json:"name"`
	// Fingerprint/Kind/Status summarize the bundle's bug.json.
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Status      string `json:"status"`
}

// ArtifactBundle is a fetched forensic bundle: the five bundle documents in
// one envelope. Bug/Schedule/Trace/PMDiff are the verbatim JSON documents
// (internal/artifact's schemas, themselves versioned by bug.json's `schema`
// field); Seed is the plain-text seed.
type ArtifactBundle struct {
	Bug      map[string]any `json:"bug"`
	Seed     string         `json:"seed"`
	Schedule map[string]any `json:"schedule,omitempty"`
	Trace    []any          `json:"trace,omitempty"`
	PMDiff   []any          `json:"pmdiff,omitempty"`
	// Spans is the campaign span snapshot captured when the bundle was
	// written (spans.json); empty when the campaign ran untraced.
	Spans []any `json:"spans,omitempty"`
}

// Error codes. Append-only; clients switch on Code, not Message.
const (
	CodeBadRequest    = "bad_request"
	CodeUnknownTarget = "unknown_target"
	CodeNotFound      = "not_found"
	CodeConflict      = "conflict"
	CodeDraining      = "draining"
	CodeInternal      = "internal"
)

// Error is the JSON error envelope every non-2xx response carries, and the
// error type the client returns for API-level failures.
type Error struct {
	// StatusCode is the HTTP status (transport detail, not serialized).
	StatusCode int `json:"-"`
	// Code is the machine-readable error class.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("pmraced: %s (%s)", e.Message, e.Code)
}

// IsCode reports whether err is an *Error with the given code.
func IsCode(err error, code string) bool {
	ae, ok := err.(*Error)
	return ok && ae.Code == code
}
