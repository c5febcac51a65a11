// Tests for serving a local campaign over HTTP: WithHTTPAddr answers
// pmraced's endpoints while the campaign runs, and the campaign's SSE
// stream carries the same event sequence the in-process sinks see.
package pmrace_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/client"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// localID is the ID a WithHTTPAddr campaign has on its one-campaign server.
const localID = "c0001"

// TestCampaignHTTPIntrospection starts a campaign with WithHTTPAddr and a
// lossless collector sink, consumes /api/v1/campaigns/{id}/events through
// client.Events to its end, and asserts the stream is a contiguous suffix
// of the collector's sequence — matched per event by emitter sequence
// number — ending with campaign_done. (A suffix, not the whole sequence:
// the campaign may emit a few events before the HTTP client connects.)
func TestCampaignHTTPIntrospection(t *testing.T) {
	col := pmrace.NewCollector()
	c, err := pmrace.NewCampaign(context.Background(), "pclht",
		pmrace.WithBudget(150, time.Minute),
		pmrace.WithWorkers(1),
		pmrace.WithThreads(1),
		pmrace.WithMode(pmrace.ModeNone),
		pmrace.WithSeed(7),
		pmrace.WithSink(col),
		pmrace.WithHTTPAddr("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr := c.HTTPAddr()
	if addr == "" {
		t.Fatal("HTTPAddr empty with WithHTTPAddr set")
	}
	// Drain the in-process channel so the campaign is never back-pressured.
	go func() {
		for range c.Events() {
		}
	}()

	// Connect the event stream first and read it concurrently: the server
	// shuts down once the campaign finishes and its streams drain, so
	// every endpoint must be hit while the campaign is still running —
	// executions are fast enough that a sequential stream-then-poll
	// order would lose the race.
	base := "http://" + addr
	events, errFn, err := client.New(base).Events(context.Background(), localID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	streamed := make(chan []pmrace.Event, 1)
	go func() {
		var evs []pmrace.Event
		for ev := range events {
			evs = append(evs, ev)
		}
		streamed <- evs
	}()

	get := func(path, contentType string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, contentType) {
			t.Fatalf("GET %s: Content-Type %q, want %q", path, ct, contentType)
		}
		return body
	}
	if body := get("/healthz", "text/plain"); string(body) != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	var status struct {
		Campaigns []api.Campaign `json:"campaigns"`
	}
	if err := json.Unmarshal(get("/status", "application/json"), &status); err != nil {
		t.Fatalf("/status decode: %v", err)
	}
	if len(status.Campaigns) != 1 || status.Campaigns[0].ID != localID || status.Campaigns[0].Stats.Target != "pclht" {
		t.Fatalf("/status campaigns = %+v", status.Campaigns)
	}
	// The served spec is the one the options built, not just the target.
	var doc api.Campaign
	if err := json.Unmarshal(get(api.BasePath+"/campaigns/"+localID, "application/json"), &doc); err != nil {
		t.Fatalf("campaign decode: %v", err)
	}
	if want := (api.CampaignSpec{Target: "pclht", Mode: "none", Workers: 1, Threads: 1,
		MaxExecs: 150, Duration: time.Minute, Seed: 7}); doc.Spec != want {
		t.Fatalf("served spec = %+v, want %+v", doc.Spec, want)
	}
	metrics := string(get("/metrics", "text/plain; version=0.0.4"))
	if !strings.Contains(metrics, "# TYPE pmrace_fuzz_execs_total counter") ||
		!strings.Contains(metrics, `campaign="`+localID+`",target="pclht"`) {
		t.Fatalf("/metrics missing the campaign's labelled exec counter:\n%s", metrics)
	}
	get("/debug/pprof/cmdline", "text/plain")

	// The campaign closing its emitter ends the stream; join the reader.
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	frames := <-streamed
	if err := errFn(); err != nil {
		t.Fatalf("event stream: %v", err)
	}

	if len(frames) == 0 {
		t.Fatal("SSE stream delivered no events")
	}
	if k := frames[len(frames)-1].Kind(); k != pmrace.KindCampaignDone {
		t.Fatalf("last SSE event = %q, want campaign_done", k)
	}

	// Index the lossless collector sequence by emitter seq, then check the
	// streamed events are exactly the collector events from the first
	// streamed seq onward.
	evs := col.Events()
	bySeq := make(map[uint64]pmrace.Event, len(evs))
	for _, ev := range evs {
		bySeq[ev.Meta().Seq] = ev
	}
	first := frames[0].Meta().Seq
	want := 0
	for _, ev := range evs {
		if ev.Meta().Seq >= first {
			want++
		}
	}
	if len(frames) != want {
		t.Fatalf("SSE delivered %d events from seq %d, collector has %d", len(frames), first, want)
	}
	prev := uint64(0)
	for i, got := range frames {
		seq := got.Meta().Seq
		if seq <= prev {
			t.Fatalf("event %d: seq %d not increasing after %d", i, seq, prev)
		}
		prev = seq
		ev, ok := bySeq[seq]
		if !ok {
			t.Fatalf("event %d: seq %d unknown to the collector", i, seq)
		}
		if gf, wf := obs.Fingerprint(got), obs.Fingerprint(ev); gf != wf {
			t.Fatalf("event %d (seq %d): streamed %q, collector %q", i, seq, gf, wf)
		}
	}
}
