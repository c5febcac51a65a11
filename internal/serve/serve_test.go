// End-to-end tests of the pmraced control plane: REST round-trips through
// the real client, error envelopes, SSE parity with the in-process API,
// cross-campaign bug dedup and graceful drain with campaigns mid-flight.
package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/client"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Supervisor, *client.Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	sup, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sup.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sup.Drain(ctx)
	})
	return sup, client.New(ts.URL)
}

// bigSpec is a campaign that will not finish on its own within the test.
func bigSpec(workers int) api.CampaignSpec {
	return api.CampaignSpec{Target: "pclht", Workers: workers,
		MaxExecs: 10_000_000, Duration: time.Hour, Seed: 1}
}

func waitState(t *testing.T, cl *client.Client, id string, want api.State) *api.Campaign {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc, err := cl.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if doc.State == want {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q, want %q", id, doc.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitGetCancelRoundTrip drives the full lifecycle over REST: a
// running campaign and a queued one behind a one-worker budget, queue
// cancellation, drain-style cancellation of the running campaign with
// partial results, and the terminal-cancel conflict.
func TestSubmitGetCancelRoundTrip(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{WorkerBudget: 1})
	ctx := context.Background()

	info, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != api.Version || info.WorkerBudget != 1 {
		t.Fatalf("server info = %+v", info)
	}

	a, err := cl.Submit(ctx, bigSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if a.State != api.StateRunning {
		t.Fatalf("first campaign state = %q, want running (budget has headroom)", a.State)
	}
	b, err := cl.Submit(ctx, bigSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != api.StatePending {
		t.Fatalf("second campaign state = %q, want pending (budget exhausted)", b.State)
	}

	list, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list = %+v", list)
	}

	// A queued campaign cancels instantly; it never held workers.
	bDoc, err := cl.Cancel(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bDoc.State != api.StateCancelled {
		t.Fatalf("cancelled pending campaign state = %q", bDoc.State)
	}

	// Cancelling the running campaign drains it: workers finish their
	// in-flight executions and the partial results stay readable.
	if _, err := cl.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	aDoc := waitState(t, cl, a.ID, api.StateCancelled)
	if aDoc.Stats.Execs <= 0 {
		t.Fatalf("drained campaign lost its partial results: %+v", aDoc.Stats)
	}
	if aDoc.Stats.State != string(api.StateCancelled) {
		t.Fatalf("stats.state = %q, want %q", aDoc.Stats.State, api.StateCancelled)
	}

	// Cancelling a terminal campaign is a conflict.
	if _, err := cl.Cancel(ctx, a.ID); !api.IsCode(err, api.CodeConflict) {
		t.Fatalf("cancel terminal: err = %v, want code %q", err, api.CodeConflict)
	}
}

// TestHandlerErrorPaths tables the error envelopes: every failure mode maps
// to its documented HTTP status and machine-readable code.
func TestHandlerErrorPaths(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{WorkerBudget: 2})
	ctx := context.Background()

	tests := []struct {
		name string
		call func() error
		code string
	}{
		{"unknown target", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{Target: "no-such-system"})
			return err
		}, api.CodeUnknownTarget},
		{"missing target", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{})
			return err
		}, api.CodeBadRequest},
		{"bad mode", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", Mode: "chaotic"})
			return err
		}, api.CodeBadRequest},
		{"workers over budget", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", Workers: 3})
			return err
		}, api.CodeBadRequest},
		{"artifacts_all without artifacts", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", ArtifactsAll: true})
			return err
		}, api.CodeBadRequest},
		{"threads over the limit", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", Threads: fuzz.MaxThreads + 1})
			return err
		}, api.CodeBadRequest},
		{"ops_per_seed over the limit", func() error {
			_, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", OpsPerSeed: fuzz.MaxOpsPerSeed + 1})
			return err
		}, api.CodeBadRequest},
		{"get unknown id", func() error {
			_, err := cl.Get(ctx, "c9999")
			return err
		}, api.CodeNotFound},
		{"cancel unknown id", func() error {
			_, err := cl.Cancel(ctx, "c9999")
			return err
		}, api.CodeNotFound},
		{"artifacts of unknown id", func() error {
			_, err := cl.Artifacts(ctx, "c9999")
			return err
		}, api.CodeNotFound},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !api.IsCode(err, tc.code) {
				t.Fatalf("err = %v, want code %q", err, tc.code)
			}
		})
	}
}

// TestSubmitRejectsOversizedSpec posts a 2 MiB spec, otherwise valid: the
// body cap turns it into a 400 bad_request and no campaign is created.
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	sup, _ := newTestServer(t, serve.Config{WorkerBudget: 1})
	body := `{"target":"pclht","pad":"` + strings.Repeat("x", 2<<20) + `"}`
	req := httptest.NewRequest(http.MethodPost, api.BasePath+"/campaigns", strings.NewReader(body))
	rec := httptest.NewRecorder()
	sup.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body)
	}
	var e api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != api.CodeBadRequest {
		t.Fatalf("error body %s (decode err %v), want code %q", rec.Body, err, api.CodeBadRequest)
	}
	if n := len(sup.List()); n != 0 {
		t.Fatalf("%d campaigns created, want 0", n)
	}
}

// TestSubmitIgnoresRetiredSpecField posts specs carrying inline_validation
// or no_checkpoints, fields earlier versions of the API had: the server
// accepts each and the campaign document does not echo it back.
func TestSubmitIgnoresRetiredSpecField(t *testing.T) {
	sup, _ := newTestServer(t, serve.Config{WorkerBudget: 1})
	for _, field := range []string{"inline_validation", "no_checkpoints"} {
		body := `{"target":"pclht","mode":"none","threads":1,"max_execs":1,"` + field + `":true}`
		req := httptest.NewRequest(http.MethodPost, api.BasePath+"/campaigns", strings.NewReader(body))
		rec := httptest.NewRecorder()
		sup.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: status %d, want 201; body %s", field, rec.Code, rec.Body)
		}
		if strings.Contains(rec.Body.String(), field) {
			t.Fatalf("campaign document echoes the retired field: %s", rec.Body)
		}
	}
}

// TestSSEParityWithInProcess runs the same fully deterministic configuration
// once under pmraced (events consumed over the REST SSE stream) and once
// in-process (pmrace.NewCampaign with a collector sink) and asserts the two
// event sequences are fingerprint-identical: the control plane adds
// scheduling around the engine, never inside it.
func TestSSEParityWithInProcess(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{WorkerBudget: 1})
	ctx := context.Background()

	// Fill the budget so the parity campaign queues: subscribers attached
	// while a campaign is Pending observe its complete stream (a campaign
	// admitted with immediate headroom starts emitting before any HTTP
	// client can attach — that race is inherent, queuing is the remedy).
	// The blocker fuzzes a different target: targets share a corpus
	// directory per target, and seeds the blocker saved would otherwise
	// change the parity campaign's initial corpus.
	blockSpec := bigSpec(1)
	blockSpec.Target = "clevel"
	blocker, err := cl.Submit(ctx, blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := cl.Submit(ctx, api.CampaignSpec{
		Target: "pclht", Mode: "none", Workers: 1, Threads: 1,
		MaxExecs: 25, Duration: time.Minute, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != api.StatePending {
		t.Fatalf("parity campaign state = %q, want pending behind the blocker", doc.State)
	}
	events, errFn, err := cl.Events(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	var remote []string
	for ev := range events {
		remote = append(remote, obs.Fingerprint(ev))
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}

	col := pmrace.NewCollector()
	c, err := pmrace.NewCampaign(ctx, "pclht",
		pmrace.WithBudget(25, time.Minute),
		pmrace.WithWorkers(1),
		pmrace.WithThreads(1),
		pmrace.WithMode(pmrace.ModeNone),
		pmrace.WithSeed(7),
		pmrace.WithSink(col),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	local := make([]string, 0, len(col.Events()))
	for _, ev := range col.Events() {
		local = append(local, obs.Fingerprint(ev))
	}

	if len(remote) == 0 {
		t.Fatal("SSE stream delivered no events")
	}
	if len(remote) != len(local) {
		t.Fatalf("event counts differ: SSE %d vs in-process %d", len(remote), len(local))
	}
	for i := range remote {
		if remote[i] != local[i] {
			t.Fatalf("event %d differs:\n  SSE:        %s\n  in-process: %s", i, remote[i], local[i])
		}
	}
	if !strings.HasPrefix(remote[len(remote)-1], "campaign_done") {
		t.Fatalf("last SSE event is not campaign_done: %s", remote[len(remote)-1])
	}
}

// TestDrainMidFlight runs three concurrent campaigns under a shared budget
// and drains the server with all of them mid-flight: drain must reject new
// submissions, cancel the campaigns at their next inter-execution check,
// keep every partial result, and return only when everything settled. Run
// under -race this also exercises the supervisor's locking.
func TestDrainMidFlight(t *testing.T) {
	sup, cl := newTestServer(t, serve.Config{WorkerBudget: 6, DrainTimeout: 30 * time.Second})
	ctx := context.Background()

	ids := make([]string, 3)
	for i := range ids {
		doc, err := cl.Submit(ctx, bigSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		if doc.State != api.StateRunning {
			t.Fatalf("campaign %d state = %q, want running", i, doc.State)
		}
		ids[i] = doc.ID
	}
	info, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.WorkersInUse != 6 {
		t.Fatalf("workers in use = %d, want 6", info.WorkersInUse)
	}

	// Let the campaigns actually fuzz before tearing them down.
	deadline := time.Now().Add(20 * time.Second)
	for {
		doc, err := cl.Get(ctx, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if doc.Stats.Execs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaigns never started executing")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := sup.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if _, err := cl.Submit(ctx, bigSpec(1)); !api.IsCode(err, api.CodeDraining) {
		t.Fatalf("submit while draining: err = %v, want code %q", err, api.CodeDraining)
	}
	info, err = cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Draining || info.WorkersInUse != 0 {
		t.Fatalf("post-drain info = %+v", info)
	}
	for _, id := range ids {
		doc, err := cl.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if doc.State != api.StateCancelled {
			t.Fatalf("campaign %s state = %q, want cancelled", id, doc.State)
		}
		if doc.Stats.Execs <= 0 {
			t.Fatalf("campaign %s lost its partial results", id)
		}
		if doc.Finished.IsZero() {
			t.Fatalf("campaign %s has no finish stamp", id)
		}
	}
}

// TestCrossCampaignDedupAndArtifacts runs two identical campaigns against
// pclht back to back: the first owns its bug fingerprints and writes
// forensic bundles fetchable over REST; the second re-finds (at least some
// of) the same fingerprints and must have them flagged as duplicates
// pointing back at the first.
func TestCrossCampaignDedupAndArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("two fuzzing campaigns")
	}
	_, cl := newTestServer(t, serve.Config{WorkerBudget: 2})
	ctx := context.Background()

	spec := api.CampaignSpec{Target: "pclht", Workers: 2,
		MaxExecs: 120, Duration: time.Minute, Seed: 2, Artifacts: true}

	first, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	firstDoc, err := cl.Wait(ctx, first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if firstDoc.State != api.StateDone {
		t.Fatalf("first campaign state = %q (error %q)", firstDoc.State, firstDoc.Error)
	}
	if len(firstDoc.Bugs) == 0 {
		t.Fatal("first campaign found no bugs — pclht's seeded inventory should surface within 120 execs")
	}
	for _, b := range firstDoc.Bugs {
		if b.Duplicate {
			t.Fatalf("first campaign's bug %s flagged duplicate of %s", b.Fingerprint, b.FirstReportedBy)
		}
	}

	arts, err := cl.Artifacts(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("no artifact bundles listed for a bug-finding campaign")
	}
	bundle, err := cl.Artifact(ctx, first.ID, arts[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if fp, _ := bundle.Bug["fingerprint"].(string); fp != arts[0].Fingerprint || fp == "" {
		t.Fatalf("bundle fingerprint %q does not match listing %q", fp, arts[0].Fingerprint)
	}
	if _, err := cl.Artifact(ctx, first.ID, "no-such-bundle"); !api.IsCode(err, api.CodeNotFound) {
		t.Fatalf("missing bundle: err = %v, want code %q", err, api.CodeNotFound)
	}

	second, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	secondDoc, err := cl.Wait(ctx, second.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(secondDoc.Bugs) == 0 {
		t.Fatal("second campaign found no bugs")
	}
	firstFPs := map[string]bool{}
	for _, b := range firstDoc.Bugs {
		firstFPs[b.Fingerprint] = true
	}
	dups := 0
	for _, b := range secondDoc.Bugs {
		if firstFPs[b.Fingerprint] {
			if !b.Duplicate || b.FirstReportedBy != first.ID {
				t.Fatalf("re-found bug %s not flagged duplicate of %s: %+v",
					b.Fingerprint, first.ID, b)
			}
			dups++
		} else if b.Duplicate {
			t.Fatalf("bug %s flagged duplicate but %s never reported it", b.Fingerprint, first.ID)
		}
	}
	if dups == 0 {
		t.Fatal("second identical campaign re-found none of the first's fingerprints")
	}
}

// TestFindingNamedAlikeOnEverySurface pins one name per finding: every
// confirmed finding of a traced pclht campaign with artifacts carries the
// same class, group site and summary in its bug_confirmed event, its
// api.Bug inventory entry and its bundle's bug.json, and the inventory and
// the bundle carry the same fingerprint.
func TestFindingNamedAlikeOnEverySurface(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	_, cl := newTestServer(t, serve.Config{WorkerBudget: 2})
	ctx := context.Background()

	// The campaign queues behind a blocker so the SSE subscriber attaches
	// before its first event (see TestSSEParityWithInProcess).
	blockSpec := bigSpec(2)
	blockSpec.Target = "clevel"
	blocker, err := cl.Submit(ctx, blockSpec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := cl.Submit(ctx, api.CampaignSpec{Target: "pclht", Workers: 2,
		MaxExecs: 300, Duration: time.Minute, Seed: 3, Artifacts: true, TraceSample: 8})
	if err != nil {
		t.Fatal(err)
	}
	events, errFn, err := cl.Events(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	type name struct{ class, site, summary string }
	confirmed := map[name]int{}
	for ev := range events {
		if bc, ok := ev.(*obs.BugConfirmed); ok {
			confirmed[name{bc.Class, bc.Site, bc.Summary}]++
		}
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, doc.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Bugs) == 0 {
		t.Fatal("campaign confirmed no bugs, cannot compare surfaces")
	}

	arts, err := cl.Artifacts(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	bundles := map[string]name{}
	for _, a := range arts {
		b, err := cl.Artifact(ctx, doc.ID, a.Name)
		if err != nil {
			t.Fatal(err)
		}
		str := func(k string) string { v, _ := b.Bug[k].(string); return v }
		group := str("write_site")
		if str("kind") == "sync" {
			group = str("sync_site")
		}
		bundles[str("fingerprint")] = name{str("kind"), group, str("summary")}
	}
	if len(bundles) != len(final.Bugs) {
		t.Fatalf("%d bundles for %d inventory entries", len(bundles), len(final.Bugs))
	}
	for _, b := range final.Bugs {
		inv := name{b.Kind, b.Site, b.Summary}
		if got, ok := bundles[b.Fingerprint]; !ok {
			t.Errorf("inventory entry %s has no bundle", b.Fingerprint)
		} else if got != inv {
			t.Errorf("%s: bug.json names it %+v, api.Bug %+v", b.Fingerprint, got, inv)
		}
		if confirmed[inv] == 0 {
			t.Errorf("%s: no bug_confirmed event names it %+v (events: %+v)", b.Fingerprint, inv, confirmed)
		}
		confirmed[inv]--
	}
	for n, left := range confirmed {
		if left != 0 {
			t.Errorf("bug_confirmed %+v seen %d more times than the inventory lists it", n, left)
		}
	}
}

// TestMetricsLabeledByCampaign asserts /metrics merges every campaign's
// registry into one exposition with campaign/target labels.
func TestMetricsLabeledByCampaign(t *testing.T) {
	sup, cl := newTestServer(t, serve.Config{WorkerBudget: 2})
	ctx := context.Background()

	doc, err := cl.Submit(ctx, api.CampaignSpec{Target: "clevel", Workers: 1,
		MaxExecs: 5, Duration: time.Minute, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, doc.ID, api.StateDone)

	ts := httptest.NewServer(sup.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := `campaign="` + doc.ID + `",target="clevel"`
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing labeled series %s:\n%s", want, body)
	}
}

// TestRestartRemembersTerminalCampaigns is the durability round-trip: a
// campaign runs to completion, the server drains (process "exit"), and a
// fresh Supervisor over the same DataDir must still serve the campaign's
// record — same state, bugs and final stats — keep its artifacts fetchable,
// refuse to cancel it, keep its bug fingerprints in the dedup store, and
// allocate non-colliding IDs for new submissions.
func TestRestartRemembersTerminalCampaigns(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()

	sup1, cl1 := newTestServer(t, serve.Config{WorkerBudget: 2, DataDir: dataDir})
	spec := api.CampaignSpec{Target: "pclht", Workers: 1, Threads: 2,
		MaxExecs: 30, Duration: time.Minute, Seed: 7, Artifacts: true}
	doc, err := cl1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, cl1, doc.ID, api.StateDone)
	arts1, err := cl1.Artifacts(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Restart: drain the first supervisor, bring up a second on the same
	// data directory. (newTestServer's cleanup drains again at test end;
	// draining a drained supervisor is a no-op.)
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = sup1.Drain(drainCtx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	_, cl2 := newTestServer(t, serve.Config{WorkerBudget: 2, DataDir: dataDir})

	got, err := cl2.Get(ctx, doc.ID)
	if err != nil {
		t.Fatalf("restarted server forgot campaign %s: %v", doc.ID, err)
	}
	if got.State != api.StateDone {
		t.Fatalf("restored state = %q, want done", got.State)
	}
	if got.Stats.Execs != final.Stats.Execs {
		t.Errorf("restored stats.execs = %d, want %d", got.Stats.Execs, final.Stats.Execs)
	}
	if len(got.Bugs) != len(final.Bugs) {
		t.Fatalf("restored %d bugs, want %d", len(got.Bugs), len(final.Bugs))
	}
	for i := range final.Bugs {
		if got.Bugs[i].Fingerprint != final.Bugs[i].Fingerprint {
			t.Errorf("restored bug %d fingerprint = %q, want %q",
				i, got.Bugs[i].Fingerprint, final.Bugs[i].Fingerprint)
		}
	}

	list, err := cl2.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range list {
		found = found || c.ID == doc.ID
	}
	if !found {
		t.Fatalf("restored campaign %s missing from list", doc.ID)
	}

	// Artifacts live on disk, so the restart keeps serving them.
	arts2, err := cl2.Artifacts(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts2) != len(arts1) {
		t.Fatalf("restored %d artifacts, want %d", len(arts2), len(arts1))
	}
	if len(arts2) > 0 {
		if _, err := cl2.Artifact(ctx, doc.ID, arts2[0].Name); err != nil {
			t.Fatalf("fetching restored artifact: %v", err)
		}
	}

	// A restored campaign is terminal: cancelling is a conflict, and its
	// dead event stream is refused cleanly rather than hanging.
	if _, err := cl2.Cancel(ctx, doc.ID); !api.IsCode(err, api.CodeConflict) {
		t.Fatalf("cancel restored: err = %v, want code %q", err, api.CodeConflict)
	}

	// New submissions must not collide with restored IDs, and the dedup
	// store must remember the pre-restart fingerprints: the same seeded
	// campaign re-finding the same bugs sees them flagged as duplicates.
	doc2, err := cl2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.ID == doc.ID {
		t.Fatalf("restarted server reallocated campaign ID %s", doc.ID)
	}
	final2 := waitState(t, cl2, doc2.ID, api.StateDone)
	if len(final.Bugs) > 0 {
		dups := 0
		for _, b := range final2.Bugs {
			if b.Duplicate && b.FirstReportedBy == doc.ID {
				dups++
			}
		}
		if dups == 0 {
			t.Fatalf("re-run campaign re-found no pre-restart fingerprints as duplicates: %+v", final2.Bugs)
		}
	}
}

// TestHandlerServesPprof pins the Go profiling routes on the serve mux.
func TestHandlerServesPprof(t *testing.T) {
	sup, _ := newTestServer(t, serve.Config{WorkerBudget: 1})
	ts := httptest.NewServer(sup.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

// startAttached starts a local campaign that will not finish on its own,
// served over HTTP (WithHTTPAddr attaches it to a one-campaign
// supervisor), and waits until it has executed something.
func startAttached(t *testing.T) (*pmrace.Campaign, *client.Client, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c, err := pmrace.NewCampaign(ctx, "pclht",
		pmrace.WithWorkers(1),
		pmrace.WithBudget(10_000_000, time.Hour),
		pmrace.WithSeed(1),
		pmrace.WithHTTPAddr("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		c.Wait()
	})
	go func() {
		for range c.Events() {
		}
	}()
	cl := client.New("http://" + c.HTTPAddr())
	list, err := cl.List(context.Background())
	if err != nil || len(list) != 1 {
		t.Fatalf("list = %+v, %v; want the one attached campaign", list, err)
	}
	id := list[0].ID
	for deadline := time.Now().Add(30 * time.Second); c.Snapshot().Execs == 0; {
		if time.Now().After(deadline) {
			t.Fatal("attached campaign executed nothing")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return c, cl, id
}

// TestAttachedCampaignRefusesSubmit: the server of a local campaign holds
// exactly that campaign, so a POST finds the table full.
func TestAttachedCampaignRefusesSubmit(t *testing.T) {
	_, cl, _ := startAttached(t)
	_, err := cl.Submit(context.Background(), api.CampaignSpec{Target: "pclht", Workers: 1})
	if !api.IsCode(err, api.CodeConflict) {
		t.Fatalf("submit to a local campaign's server: err = %v, want %s", err, api.CodeConflict)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("submit error = %#v, want HTTP 409", err)
	}
}

// TestAttachedCampaignCancel: a DELETE on a local campaign ends it like
// Ctrl-C — cancelled, with Wait returning the partial result.
func TestAttachedCampaignCancel(t *testing.T) {
	c, cl, id := startAttached(t)
	doc, err := cl.Cancel(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != api.StateDraining && doc.State != api.StateCancelled {
		t.Fatalf("cancel returned state %q", doc.State)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != pmrace.StateCancelled {
		t.Fatalf("state after DELETE = %q, want cancelled", c.State())
	}
	if res == nil || res.Execs == 0 || res.Execs >= 10_000_000 {
		t.Fatalf("partial result = %+v", res)
	}
}

// allKindsEvents returns one event of every kind, ending with the terminal
// CampaignDone, mirroring a miniature campaign.
func allKindsEvents() []obs.Event {
	return []obs.Event{
		&obs.PhaseChange{Phase: "fuzzing", Prev: "init"},
		&obs.SeedAccepted{Origin: "initial", Ops: 10, CorpusSize: 1},
		&obs.ExecDone{Exec: 1, Worker: 0, NewBits: 3, BranchCov: 3, AliasCov: 1, Candidates: 2, Duration: time.Millisecond},
		&obs.InterleavingScheduled{Worker: 0, Addr: 0x40, Priority: 7, Skip: 1},
		&obs.InconsistencyFound{Class: "inter", WriteSite: "a.go:1", ReadSite: "b.go:2", StoreSite: "c.go:3", Flow: "value"},
		&obs.ValidationVerdict{Class: "inter", Status: "bug", Latency: time.Millisecond},
		&obs.BugConfirmed{Class: "inter", Site: "a.go:1", Summary: "dirty read"},
		&obs.CampaignDone{Stats: obs.Stats{Target: "t", Mode: "pmrace", Execs: 1, Seeds: 1, Bugs: 1}},
	}
}

// sseFrame is one parsed Server-Sent-Events frame.
type sseFrame struct {
	event string
	id    string
	data  string
}

func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseFrame{}) {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestServerSSEFullEquality connects a ServeSSE client before any event is
// emitted (response headers received implies the Subscribe
// registration happened), emits one event of every kind, closes the
// emitter, and checks the framed stream equals the in-process sequence
// event for event.
func TestServerSSEFullEquality(t *testing.T) {
	em := obs.NewEmitter()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.ServeSSE(w, r, em)
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := allKindsEvents()
	for _, ev := range events {
		em.Emit(ev)
	}
	em.Close() // ends the extra channel, so the stream reaches EOF

	frames := readSSE(t, resp.Body)
	if len(frames) != len(events) {
		t.Fatalf("got %d SSE frames, want %d", len(frames), len(events))
	}
	for i, fr := range frames {
		want := events[i]
		m := want.Meta()
		if fr.event != string(want.Kind()) {
			t.Errorf("frame %d: event field %q, want %q", i, fr.event, want.Kind())
		}
		if fr.id != fmt.Sprintf("%d", m.Seq) {
			t.Errorf("frame %d: id field %q, want %d", i, fr.id, m.Seq)
		}
		var env struct {
			Kind obs.Kind        `json:"kind"`
			Seq  uint64          `json:"seq"`
			AtMs float64         `json:"at_ms"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(fr.data), &env); err != nil {
			t.Fatalf("frame %d: data not JSON: %v\n%s", i, err, fr.data)
		}
		if env.Kind != want.Kind() || env.Seq != m.Seq {
			t.Errorf("frame %d: envelope kind=%q seq=%d, want kind=%q seq=%d",
				i, env.Kind, env.Seq, want.Kind(), m.Seq)
		}
		got, err := obs.DecodeEvent(env.Kind, env.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if gf, wf := obs.Fingerprint(got), obs.Fingerprint(want); gf != wf {
			t.Errorf("frame %d: decoded fingerprint %q, want %q", i, gf, wf)
		}
	}
}
