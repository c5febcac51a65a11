// The remote subcommands drive a pmraced control plane through package
// client:
//
//	pmrace submit -server http://host:7762 -target pclht -execs 500 -wait
//	pmrace status -server http://host:7762 [-id c0001]
//	pmrace cancel -server http://host:7762 -id c0001 [-wait]
//	pmrace logs   -server http://host:7762 -id c0001 [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/client"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// runRemote dispatches the pmraced subcommands. cmd is os.Args[1], args the
// flags after it. Exit codes match the local runs: 0 clean, 1 the campaign
// confirmed bugs, 2 usage/transport error.
func runRemote(cmd string, args []string) int {
	switch cmd {
	case "submit":
		return runSubmit(args)
	case "status":
		return runStatus(args)
	case "cancel":
		return runCancel(args)
	case "logs":
		return runLogs(args)
	case "trace":
		return runTrace(args)
	default:
		fmt.Fprintf(os.Stderr, "pmrace: unknown command %q (want submit, status, cancel, logs or trace)\n", cmd)
		return 2
	}
}

// remoteFlags declares the flags every subcommand shares.
func remoteFlags(name string) (*flag.FlagSet, *string) {
	fs := newFlagSet(name)
	server := fs.String("server", "http://127.0.0.1:7762", "pmraced base URL")
	return fs, server
}

// submitErrorLine renders a submit failure for the terminal. An unknown
// target is an operator typo, not a protocol failure, so instead of the raw
// API error envelope it prints the server's one-line explanation, which
// ends with the registered-target listing.
func submitErrorLine(err error) string {
	if ae, ok := err.(*api.Error); ok && ae.Code == api.CodeUnknownTarget {
		return fmt.Sprintf("pmrace: %s", ae.Message)
	}
	return fmt.Sprintf("pmrace: submit: %v", err)
}

func runSubmit(args []string) int {
	fs, server := remoteFlags("submit")
	spec := api.CampaignSpec{Target: "pclht", Workers: 1}
	specFlags(fs, &spec)
	fs.BoolVar(&spec.Artifacts, "artifacts", false, "write a forensic bundle per confirmed bug (fetch via the artifacts endpoints)")
	wait := fs.Bool("wait", false, "block until the campaign is terminal and print its final document")
	jsonOut := fs.Bool("json", false, "print campaign documents as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	doc, err := cl.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, submitErrorLine(err))
		return 2
	}
	if !*wait {
		printCampaign(doc, *jsonOut)
		return 0
	}
	final, err := cl.Wait(ctx, doc.ID, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: wait: %v\n", err)
		return 2
	}
	printCampaign(final, *jsonOut)
	if len(final.Bugs) > 0 {
		return 1
	}
	return 0
}

func runStatus(args []string) int {
	fs, server := remoteFlags("status")
	id := fs.String("id", "", "campaign ID (empty: list all campaigns and the server document)")
	jsonOut := fs.Bool("json", false, "print documents as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	if *id != "" {
		doc, err := cl.Get(ctx, *id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmrace: status: %v\n", err)
			return 2
		}
		printCampaign(doc, *jsonOut)
		return 0
	}
	info, err := cl.Info(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: status: %v\n", err)
		return 2
	}
	list, err := cl.List(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: status: %v\n", err)
		return 2
	}
	if *jsonOut {
		printJSON(struct {
			Server    *api.ServerInfo `json:"server"`
			Campaigns []api.Campaign  `json:"campaigns"`
		}{info, list})
		return 0
	}
	fmt.Printf("pmraced %s: %d/%d workers in use, %d campaigns, draining=%v\n",
		info.Version, info.WorkersInUse, info.WorkerBudget, info.Campaigns, info.Draining)
	for i := range list {
		printCampaign(&list[i], false)
	}
	return 0
}

func runCancel(args []string) int {
	fs, server := remoteFlags("cancel")
	id := fs.String("id", "", "campaign ID (required)")
	wait := fs.Bool("wait", false, "block until the drain settles and print the final document")
	jsonOut := fs.Bool("json", false, "print campaign documents as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "pmrace: cancel: -id is required")
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	doc, err := cl.Cancel(ctx, *id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: cancel: %v\n", err)
		return 2
	}
	if *wait && !doc.State.Terminal() {
		if doc, err = cl.Wait(ctx, *id, 0); err != nil {
			fmt.Fprintf(os.Stderr, "pmrace: cancel: %v\n", err)
			return 2
		}
	}
	printCampaign(doc, *jsonOut)
	return 0
}

func runLogs(args []string) int {
	fs, server := remoteFlags("logs")
	id := fs.String("id", "", "campaign ID (required)")
	jsonOut := fs.Bool("json", false, "print the raw JSONL envelopes instead of human lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "pmrace: logs: -id is required")
		return 2
	}
	cl := client.New(*server)
	ctx, stop := signalContext()
	defer stop()

	events, errFn, err := cl.Events(ctx, *id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: logs: %v\n", err)
		return 2
	}
	for ev := range events {
		if *jsonOut {
			printJSON(struct {
				Kind obs.Kind `json:"kind"`
				Data any      `json:"data"`
			}{ev.Kind(), ev})
			continue
		}
		fmt.Printf("%-22s %s\n", ev.Kind(), obs.Fingerprint(ev))
	}
	if err := errFn(); err != nil {
		fmt.Fprintf(os.Stderr, "pmrace: logs: %v\n", err)
		return 2
	}
	return 0
}

func printCampaign(c *api.Campaign, asJSON bool) {
	if asJSON {
		printJSON(c)
		return
	}
	line := fmt.Sprintf("%s  %-10s %-9s execs=%d bugs=%d", c.ID, c.Spec.Target, c.State,
		c.Stats.Execs, len(c.Bugs))
	if c.Error != "" {
		line += "  error=" + c.Error
	}
	fmt.Println(line)
	for _, b := range c.Bugs {
		dup := ""
		if b.Duplicate {
			dup = fmt.Sprintf("  (duplicate of %s's finding)", b.FirstReportedBy)
		}
		fmt.Printf("    [%s] %s — %s%s\n", b.Kind, b.Site, b.Summary, dup)
	}
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// signalContext cancels on Ctrl-C / SIGTERM so remote waits and streams end
// promptly.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// newFlagSet gives each subcommand its own flag namespace with the standard
// continue-on-error-reported behavior.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("pmrace "+name, flag.ContinueOnError)
}
