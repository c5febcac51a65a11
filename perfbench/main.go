// Command perfbench is the detector's benchmark: three workloads run through
// the public entry points (pmrace.NewCampaign, and pmraced's supervisor and
// /api/v1 driven by package client), with a traced pass that breaks time
// down by layer. Run it from the repository root:
//
//	bash perfbench/run.sh --workload pclht-synth --seed 1 --seconds 20 --trace 0
//
// Workloads: pclht-synth, pmwal-hunt, fleet. With --trace 0 the final line's
// metrics are the end-to-end metrics, with --trace 1 the per-layer metrics
// (metrics.go lists both, and which end-to-end metric and workload each
// per-layer metric should move). The line before it is a JSON record of the
// host, the code, every in-run sample's quartiles and the failed operations.
// The exit status is 1 when any operation failed — a campaign error, a
// campaign not ending done, a refused submit, or an expected seeded-bug group
// left unconfirmed — and 2 when the run could not complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	_ "github.com/pmrace-go/pmrace" // registers the targets
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "pclht-synth, pmwal-hunt or fleet")
	seed := flag.Int64("seed", 1, "run seed: orders the workload's fixed campaign list")
	secs := flag.Int("seconds", 20, "nominal measuring time; sets how many campaigns a run makes")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	flag.Parse()

	// The detector runs on one P. An execution's threads spin-wait on each
	// other (lock yields, PM-aware cond_wait polls); with a P per CPU of a
	// small shared host they spin across cores, so a campaign burns up to
	// twice the CPU and its throughput follows the neighbours' load
	// (pmwal-hunt: 42 exec/s at 1.15 CPUs with two Ps, 75 exec/s at 0.9 CPUs
	// with one, on a 2-CPU virtual machine).
	runtime.GOMAXPROCS(1)

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	groups, ok := exp.Groups[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want pclht-synth, pmwal-hunt or fleet)\n", *workload)
		return 2
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	cfg := runConfig{seed: *seed, seconds: *secs, work: work, expected: groups}
	o := newOutcome()
	if err := runWorkload(context.Background(), *workload, cfg, *trace == 1, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	o.set("peak_rss_mb", peakRSSMiB(), nil)

	table := endToEnd
	if *trace == 1 {
		table = perLayer
	}
	metrics := map[string]any{}
	for _, m := range table {
		metrics[m.Name] = map[string]any{"value": o.values[m.Name], "unit": m.Unit}
	}
	if err := emitRecord(root, *workload, *seed, *trace == 1, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(o.failures) == 0,
		"attempted": o.attempted,
		"failed":    len(o.failures),
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if len(o.failures) > 0 {
		for _, f := range o.failures {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
		}
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, name string, c runConfig, traced bool, o *outcome) error {
	switch name {
	case "pclht-synth", "pmwal-hunt":
		p := pclhtPlan(c)
		if name == "pmwal-hunt" {
			p = pmwalPlan(c)
		}
		if traced {
			return traceList(ctx, p, c, o)
		}
		p.record(p.run(false, ""), o)
		return nil
	case "fleet":
		if traced {
			return traceFleet(ctx, c, o)
		}
		return runFleet(ctx, c, o)
	}
	return fmt.Errorf("unknown workload %q", name)
}

// emitRecord prints the run's provenance line: host and code, the quartiles
// of every metric sampled more than once within the run, every value
// (reported or not), and the failed operations.
func emitRecord(root, workload string, seed int64, traced bool, o *outcome) error {
	quart := map[string]any{}
	names := make([]string, 0, len(o.samples))
	for k := range o.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := o.samples[k]
		q1, med, q3 := s.quartiles()
		quart[k] = map[string]any{"n": len(s), "q1": q1, "median": med, "q3": q3}
	}
	failedShare := 0.0
	if o.attempted > 0 {
		failedShare = float64(len(o.failures)) / float64(o.attempted)
	}
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	values := map[string]any{}
	for k, v := range o.values {
		values[k] = map[string]any{"value": v, "unit": units[k]}
	}
	rec, err := json.Marshal(map[string]any{
		"workload":     workload,
		"seed":         seed,
		"traced":       traced,
		"provenance":   hostProvenance(root),
		"values":       values,
		"quartiles":    quart,
		"failed_share": failedShare,
		"failures":     o.failures,
		"detail":       o.detail,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	return nil
}
