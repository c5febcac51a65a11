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
	"strings"
	"syscall"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
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
	var (
		list      = flag.Bool("list", false, "list registered targets and exit")
		target    = flag.String("target", "pclht", "target system to fuzz")
		execs     = flag.Int("execs", 120, "execution budget")
		duration  = flag.Duration("duration", 2*time.Minute, "wall-clock budget")
		workers   = flag.Int("workers", 4, "concurrent fuzzing workers")
		threads   = flag.Int("threads", 4, "driver threads per execution")
		seed      = flag.Int64("seed", 1, "random seed")
		mode      = flag.String("mode", "pmrace", "exploration: pmrace | delay | none")
		proto     = flag.Bool("proto", false, "fuzz through memcached text-protocol byte streams instead of synthetic op vectors")
		noCP      = flag.Bool("no-checkpoints", false, "disable in-memory pool checkpoints")
		eadr      = flag.Bool("eadr", false, "model battery-backed caches (stores durable at visibility)")
		corpus    = flag.String("corpus", "", "seed-corpus directory (loaded at start, improving seeds saved back)")
		replay    = flag.String("replay", "", "replay one saved .seed file against the target and exit")
		artifact  = flag.String("artifact", "", "replay one forensic bug bundle directory and exit (0 = reproduced)")
		artifacts = flag.String("artifacts", "", "write a forensic bundle per confirmed bug into this directory")
		artAll    = flag.Bool("artifacts-all", false, "with -artifacts: also bundle validated/whitelisted false positives")
		httpAddr  = flag.String("http", "", "serve the campaign through pmraced's API (/status /metrics /api/v1/campaigns/c0001/...) on this address")
		traceFlag = flag.Bool("trace", false, "record a span timeline (flight recorder + Chrome trace-event export on /trace)")
		traceSmpl = flag.Int("trace-sample", 0, "with -trace: record per-exec spans for every Nth execution (0 = default 8)")
		jsonOut   = flag.Bool("json", false, "stream the event trace as JSONL to stdout (summary goes to stderr)")
		progress  = flag.Bool("progress", false, "render a 1 Hz status line while fuzzing")
		verbose   = flag.Bool("v", false, "print full per-inconsistency reports")

		aliasHints     = flag.String("alias-hints", "", "pmvet alias-pair report (pmvet -alias out.json) used to prioritize the interleaving queue")
		maxCrashStates = flag.Int("max-crash-states", 1, "crash states validated per finding (1 = the paper's single adversarial image)")
		valWorkers     = flag.Int("validate-workers", 2, "asynchronous post-failure validation workers")
		valWallTimeout = flag.Duration("validate-wall-timeout", 2*time.Second, "wall-clock bound per recovery run in post-failure validation")
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
		return replayArtifact(*artifact, *target)
	}

	if *replay != "" {
		if err := replaySeed(*target, *replay, *threads); err != nil {
			fmt.Fprintf(os.Stderr, "pmrace: replay: %v\n", err)
			return 2
		}
		return 0
	}

	explore, err := fuzz.ParseMode(strings.ToLower(*mode))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: %v\n", err)
		return 2
	}

	options := []pmrace.CampaignOption{
		pmrace.WithBudget(*execs, *duration),
		pmrace.WithWorkers(*workers),
		pmrace.WithThreads(*threads),
		pmrace.WithSeed(*seed),
		pmrace.WithMode(explore),
		pmrace.WithCorpusDir(*corpus),
		pmrace.WithArtifacts(*artifacts),
		pmrace.WithMaxCrashStates(*maxCrashStates),
		pmrace.WithValidationWorkers(*valWorkers),
		pmrace.WithValidationWallTimeout(*valWallTimeout),
	}
	if *aliasHints != "" {
		hints, err := pmrace.LoadAliasHints(*aliasHints)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmrace: %v\n", err)
			return 2
		}
		options = append(options, pmrace.WithAliasHints(hints))
	}
	if *proto {
		options = append(options, pmrace.WithProtocolTraffic())
	}
	if *noCP {
		options = append(options, pmrace.WithoutCheckpoints())
	}
	if *eadr {
		options = append(options, pmrace.WithEADR())
	}
	if *artAll {
		options = append(options, pmrace.WithAllArtifacts())
	}
	if *httpAddr != "" {
		options = append(options, pmrace.WithHTTPAddr(*httpAddr))
	}
	if *traceFlag || *traceSmpl > 0 {
		options = append(options, pmrace.WithTracing(*traceSmpl))
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

	c, err := pmrace.NewCampaign(ctx, *target, options...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "fuzzing %s (%s exploration, %d workers, budget %d execs / %s)\n",
		*target, explore, *workers, *execs, *duration)
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
