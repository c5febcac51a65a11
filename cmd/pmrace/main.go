// Command pmrace fuzzes one of the bundled concurrent PM systems (or any
// registered target) with PM-aware coverage-guided fuzzing and prints the
// detected bugs, inconsistency statistics and detailed reports.
//
// Usage:
//
//	pmrace -target pclht -execs 120 -workers 4
//	pmrace -target pclht -execs 50 -json > trace.jsonl
//	pmrace -target pclht -http :8080 -artifacts ./bugs -duration 10m
//	pmrace -target memcached -mode delay -duration 30s -progress
//	pmrace -artifact ./bugs/0001-sync
//	pmrace -list
//
// Against a pmraced control plane (see cmd/pmraced), the subcommands drive
// campaigns remotely over the versioned REST API:
//
//	pmrace submit -server http://host:7762 -target pclht -execs 500 -wait
//	pmrace status -server http://host:7762 [-id c0001]
//	pmrace cancel -server http://host:7762 -id c0001 -wait
//	pmrace logs   -server http://host:7762 -id c0001
//	pmrace trace  -server http://host:7762 c0001 > timeline.json
//
// submit takes the same campaign-spec flags as a local run (-target, -mode,
// -workers, -execs, -max-crash-states, ...); a flag left unset selects the
// server default.
//
// With -json the typed event stream (exec_done, seed_accepted,
// inconsistency_found, validation_verdict, bug_confirmed, campaign_done,
// ...) goes to stdout as JSON lines and the human summary moves to stderr.
// -http serves the campaign through pmraced's handlers while it runs, as
// campaign c0001, so the status, logs and trace subcommands work against
// it; -artifacts writes a replayable forensic bundle per confirmed bug, and
// -artifact replays one.
// Ctrl-C cancels the campaign's context: workers stop within one execution
// and the partial results are reported.
//
// Exit codes: 0 — clean campaign (or successful replay/reproduction);
// 1 — the campaign confirmed bugs (or a replay failed to reproduce);
// 2 — usage or runtime error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/site"
)

func main() { os.Exit(run()) }

// run is main with an exit code: 0 clean campaign, 1 confirmed bugs,
// 2 usage/runtime error.
func run() int {
	// The pmraced subcommands (submit/status/cancel/logs) drive a remote
	// control plane; everything else is the local flag CLI.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "cancel", "logs", "trace":
			return runRemote(os.Args[1], os.Args[2:])
		}
	}
	spec := api.CampaignSpec{Target: "pclht", Mode: "pmrace", Workers: 4, Threads: 4,
		MaxExecs: 120, Duration: 2 * time.Minute, Seed: 1, MaxCrashStates: 1}
	specFlags(flag.CommandLine, &spec)
	var (
		list      = flag.Bool("list", false, "list registered targets and exit")
		corpus    = flag.String("corpus", "", "seed-corpus directory (loaded at start, improving seeds saved back)")
		replay    = flag.String("replay", "", "replay one saved .seed file against the target and exit")
		artifact  = flag.String("artifact", "", "replay one forensic bug bundle directory and exit (0 = reproduced)")
		artifacts = flag.String("artifacts", "", "write a forensic bundle per confirmed bug into this directory")
		httpAddr  = flag.String("http", "", "serve the campaign through pmraced's API (/status /metrics /api/v1/campaigns/c0001/...) on this address")
		traceFlag = flag.Bool("trace", false, "record a span timeline (flight recorder + Chrome trace-event export on /trace)")
		jsonOut   = flag.Bool("json", false, "stream the event trace as JSONL to stdout (summary goes to stderr)")
		progress  = flag.Bool("progress", false, "render a 1 Hz status line while fuzzing")
		verbose   = flag.Bool("v", false, "print full per-inconsistency reports")
	)
	flag.Parse()

	if *list {
		fmt.Println("registered targets:")
		for _, n := range pmrace.Targets() {
			fmt.Println("  " + n)
		}
		return 0
	}

	if *artifact != "" {
		return replayArtifact(*artifact, spec.Target)
	}

	if *replay != "" {
		if err := replaySeed(spec.Target, *replay, spec.Threads); err != nil {
			fmt.Fprintf(os.Stderr, "pmrace: replay: %v\n", err)
			return 2
		}
		return 0
	}

	options := []pmrace.CampaignOption{
		pmrace.WithSpec(spec),
		pmrace.WithCorpusDir(*corpus),
		pmrace.WithArtifacts(*artifacts),
	}
	if *httpAddr != "" {
		options = append(options, pmrace.WithHTTPAddr(*httpAddr))
	}
	if *traceFlag {
		options = append(options, pmrace.WithTracing(spec.TraceSample))
	}
	// The human-readable stream: stdout normally, stderr when stdout
	// carries the JSONL trace.
	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = os.Stderr
		options = append(options, pmrace.WithJSONTrace(os.Stdout))
	}
	if *progress {
		options = append(options, pmrace.WithProgress(out))
	}

	// Ctrl-C cancels the campaign context: workers finish their current
	// execution and stop; partial results are still reported below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := pmrace.NewCampaign(ctx, spec.Target, options...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // NewCampaign's errors carry the pmrace: prefix
		return 2
	}
	fmt.Fprintf(out, "fuzzing %s (%s exploration, %d workers, budget %d execs / %s)\n",
		spec.Target, c.Snapshot().Mode, spec.Workers, spec.MaxExecs, spec.Duration)
	if addr := c.HTTPAddr(); addr != "" {
		fmt.Fprintf(out, "introspection: http://%s/status\n", addr)
	}
	// Drain the event stream until the campaign closes it; sinks (-json)
	// run independently of this loop.
	for range c.Events() {
	}
	res, err := c.Wait()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: %v\n", err)
		return 2
	}
	if c.State() == pmrace.StateCancelled { // Ctrl-C, or a DELETE over -http
		fmt.Fprintf(out, "\ninterrupted — partial results\n")
	}

	fmt.Fprintf(out, "\n%d executions over %d seeds in %s (%.1f exec/s)\n",
		res.Execs, res.Seeds, res.Elapsed.Round(time.Millisecond), res.ExecsPerSec)
	fmt.Fprintf(out, "coverage: %d branch bits, %d PM alias pair bits\n", res.BranchCov, res.AliasCov)
	c2 := res.Counts
	fmt.Fprintf(out, "candidates: %d inter, %d intra\n", c2.InterCandidates, c2.IntraCandidates)
	fmt.Fprintf(out, "inconsistencies: %d inter (%d validated FP, %d whitelisted FP), %d intra, %d sync (%d FP)\n",
		c2.Inter, c2.InterValidated, c2.InterWhitelist, c2.Intra, c2.Sync, c2.SyncValidated)

	fmt.Fprintf(out, "\nunique bugs (%d):\n", len(res.Bugs))
	for _, b := range res.Bugs {
		fmt.Fprintf(out, "  [%s] %s — %s\n", b.Kind, site.Lookup(b.GroupSite), b.Summary)
	}
	for _, o := range res.DB.Others() {
		fmt.Fprintf(out, "  [Other] %s — %s: %s\n", site.Lookup(o.Site), o.Kind, o.Description)
	}

	if *verbose {
		fmt.Fprintln(out, "\ndetailed reports:")
		for _, j := range res.DB.Inconsistencies() {
			fmt.Fprintln(out, core.FormatInconsistency(j))
		}
		for _, j := range res.DB.Syncs() {
			fmt.Fprintln(out, core.FormatSync(j))
		}
	}

	if len(res.Bugs) > 0 || len(res.DB.Others()) > 0 {
		return 1
	}
	return 0
}
