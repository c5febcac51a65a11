package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// The traced pass runs each workload twice — untraced, then with the
// existing spans at sample rate 1 — and times the layers from outside on the
// inputs the traced campaigns saved. End-to-end metrics come from the
// untraced pass only; the difference between the two passes' throughput is
// the tracing overhead.

// spanNames are the campaign lifecycle spans the traced pass breaks time into.
var spanNames = []string{
	obs.SpanSeedPick, obs.SpanInterleaving, obs.SpanExecRun, obs.SpanConflictAnalysis,
	obs.SpanCrashStateEnum, obs.SpanValidate, obs.SpanValidateState, obs.SpanQueueWait,
}

// spanTotal is one span name's sample count and summed duration.
type spanTotal struct {
	count int64
	sumNs float64
}

func spansFromRegistries(regs []*obs.Registry) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		for _, name := range spanNames {
			_, count, sum := reg.Histogram(obs.SpanHistName(name)).Buckets()
			t := out[name]
			t.count += count
			t.sumNs += float64(sum)
			out[name] = t
		}
	}
	return out
}

// spansFromExposition sums the span histograms of every campaign in a
// pmraced /metrics exposition.
func spansFromExposition(text string) map[string]spanTotal {
	out := map[string]spanTotal{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, name := range spanNames {
			fam := "pmrace_" + obs.SpanHistName(name) + "_seconds"
			rest, ok := strings.CutPrefix(line, fam)
			if !ok {
				continue
			}
			i := strings.LastIndexByte(rest, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(rest[i+1:], 64)
			if err != nil {
				continue
			}
			t := out[name]
			switch {
			case strings.HasPrefix(rest, "_sum"):
				t.sumNs += v * 1e9
			case strings.HasPrefix(rest, "_count"):
				t.count += int64(v)
			}
			out[name] = t
		}
	}
	return out
}

// recordSpans reports each span's mean duration and its share of the busy
// time the spans were recorded over.
func recordSpans(totals map[string]spanTotal, busy time.Duration, names []string, o *outcome) {
	for _, name := range names {
		t := totals[name]
		mean, share := 0.0, 0.0
		if t.count > 0 {
			mean = t.sumNs / float64(t.count) / 1e3
			share = t.sumNs / float64(busy.Nanoseconds())
		}
		o.set("span."+name+".mean_us", mean, nil)
		o.set("span."+name+".share", share, nil)
	}
}

// recordUnaccounted reports the part of a sampled execution's exec_run span
// that the outside-timed layers do not explain: exec_run minus the pool
// restore, Recover on the restored pool, the operations run one after
// another, the end-of-execution hook, wire parsing, and the crash images and
// their recovery replays. An execution's threads run concurrently inside exec_run,
// so a negative share means the threads overlapped more than they contended.
func recordUnaccounted(o *outcome, v layerValues) {
	exec := o.values["span.exec_run.mean_us"]
	if exec <= 0 {
		return
	}
	accounted := v["pmem.restore_us"] + v["target.recover_us"] +
		v["target.ops_per_exec"]*v["target.op_us"] + v["rt.end_exec_us"] +
		v["wire.cmds_per_exec"]*v["wire.parse_ns_per_cmd"]/1e3 +
		v["pmem.crash_images_per_exec"]*(v["pmem.crash_image_us"]+v["target.crash_recover_us"])
	o.set("exec_run.unaccounted_share", 1-accounted/exec, nil)
	o.detail["exec_run_accounted_us"] = accounted
}

// execLatency reports the quantiles of the per-execution durations (µs) the
// campaigns' ExecDone events carried.
func execLatency(d samples, o *outcome) {
	o.set("fuzz.exec_p50_us", d.percentile(0.5), nil)
	o.set("fuzz.exec_p99_us", d.percentile(0.99), nil)
	o.detail["exec_samples"] = len(d)
}

// loadSeeds reads up to limit seeds from the corpus directories beneath
// root, taking them round-robin so every campaign contributes.
func loadSeeds(root string, threads, limit int) ([]*workload.Seed, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var per [][]*workload.Seed
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		s, err := fuzz.LoadCorpus(filepath.Join(root, e.Name()), threads)
		if err != nil {
			return nil, err
		}
		per = append(per, s)
	}
	var out []*workload.Seed
	for i := 0; len(out) < limit; i++ {
		took := false
		for _, s := range per {
			if i < len(s) && len(out) < limit {
				out = append(out, s[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out, nil
}

// probeSeeds is how many saved seeds the layer replay runs per target.
const probeSeeds = 8

// traceList is the traced pass of a campaign-list workload: the first half
// of the list untraced and then traced, dedicated hunts for the search
// metrics, the layer replay on the traced campaigns' saved seeds, and a
// control-plane probe.
func traceList(ctx context.Context, p listPlan, c runConfig, o *outcome) error {
	p.Seeds = p.Seeds[:max(1, len(p.Seeds)/2)]
	un := p.run(false, "")
	p.record(un, o)
	corpus := filepath.Join(c.work, "corpus")
	tr := p.run(true, corpus)
	recordHunts(p.Target, p.Protocol, p.Expected, 3, o)

	var unExecs, trExecs int
	var unWall, trWall time.Duration
	var interl, pruned int
	var dropped int64
	var durs samples
	for _, r := range un.runs {
		unExecs += r.Execs
		unWall += r.Wall
		dropped += r.Dropped
		for _, d := range r.ExecDur {
			durs = append(durs, float64(d.Nanoseconds())/1e3)
		}
	}
	for _, r := range tr.runs {
		trExecs += r.Execs
		trWall += r.Wall
		dropped += r.Dropped
		if r.Res != nil {
			interl += r.Res.Interleavings
			pruned += r.Res.PrunedInterleavings
		}
	}
	unEPS := float64(unExecs) / unWall.Seconds()
	trEPS := float64(trExecs) / trWall.Seconds()
	o.set("trace.overhead_pct", (unEPS/trEPS-1)*100, nil)
	o.set("obs.events_dropped", float64(dropped), nil)
	o.set("sched.pruned_share", ratio(pruned, interl+pruned), nil)
	execLatency(durs, o)
	recordSpans(spansFromRegistries(tr.regs), trWall, spanNames[:len(spanNames)-1], o)

	seeds, err := loadSeeds(corpus, seedThreads, probeSeeds)
	if err != nil {
		return err
	}
	v, err := probeLayers(layerInput{
		Target: p.Target, Protocol: p.Protocol, GenSeed: c.seed, Seeds: seeds, WorkDir: c.work,
	})
	if err != nil {
		return err
	}
	o.merge(v)
	recordUnaccounted(o, v)

	// Control-plane probe: three campaigns of this workload's target on a
	// supervisor with nproc workers, so the last one queues.
	var specs []api.CampaignSpec
	for s := int64(1); s <= 3; s++ {
		specs = append(specs, api.CampaignSpec{Target: p.Target, Workers: 1, MaxExecs: 60,
			Duration: 60 * time.Second, Seed: s, Protocol: p.Protocol, TraceSample: 1})
	}
	b, err := runBatch(ctx, filepath.Join(c.work, "serve-probe"), specs, nil, true)
	if err != nil {
		return err
	}
	recordServe(b, o)
	return nil
}

// recordServe reports the control plane's request round trips, the campaigns'
// admission wait, and the queue_wait span.
func recordServe(b *batch, o *outcome) {
	var qw samples
	var life time.Duration
	for _, bc := range b.campaigns {
		if bc.doc != nil {
			qw = append(qw, bc.doc.Started.Sub(bc.doc.Created).Seconds())
			life += bc.doc.Finished.Sub(bc.doc.Created)
		}
	}
	o.set("serve.submit_ms", b.submitMs.median(), b.submitMs)
	o.set("serve.get_ms", b.getMs.median(), nil)
	o.set("serve.queue_wait_s", qw.mean(), qw)
	recordSpans(spansFromExposition(b.metrics), life, []string{obs.SpanQueueWait}, o)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceFleet is the fleet's traced pass: an untraced batch, a batch with
// every campaign traced at sample rate 1, and the layer replay over each
// target's shared corpus from the traced batch, averaged across targets.
func traceFleet(ctx context.Context, c runConfig, o *outcome) error {
	un, err := runBatch(ctx, filepath.Join(c.work, "fleet-untraced"), fleetSpecs(0), c.expected, false)
	if err != nil {
		return err
	}
	recordBatch(un, c.expected, o)
	unEPS := o.values["execs_per_s"]
	tr, err := runBatch(ctx, filepath.Join(c.work, "fleet-traced"), fleetSpecs(1), c.expected, true)
	if err != nil {
		return err
	}
	var execs, interl, pruned int
	var dropped int64
	var busy time.Duration
	var durs samples
	for _, bc := range tr.campaigns {
		if bc.doc == nil {
			continue
		}
		execs += bc.doc.Stats.Execs
		interl += int(bc.doc.Stats.Interleavings)
		pruned += int(bc.doc.Stats.InterleavingsPruned)
		dropped += bc.doc.Stats.EventsDropped
		busy += bc.doc.Finished.Sub(bc.doc.Started)
	}
	for _, bc := range un.campaigns {
		if bc.doc != nil {
			dropped += bc.doc.Stats.EventsDropped
		}
	}
	o.set("trace.overhead_pct", (unEPS/(float64(execs)/tr.makespan.Seconds())-1)*100, nil)
	o.set("obs.events_dropped", float64(dropped), nil)
	o.set("sched.pruned_share", ratio(pruned, interl+pruned), nil)
	for _, bc := range un.campaigns {
		for _, d := range bc.durs {
			durs = append(durs, float64(d.Nanoseconds())/1e3)
		}
	}
	execLatency(durs, o)
	recordSpans(spansFromExposition(tr.metrics), busy, spanNames[:len(spanNames)-1], o)
	recordServe(tr, o)

	sum, n := layerValues{}, map[string]int{}
	for _, t := range fleetTargets {
		seeds, err := fuzz.LoadCorpus(filepath.Join(tr.dataDir, "corpus", t.name), seedThreads)
		if err != nil {
			return err
		}
		if len(seeds) > probeSeeds {
			seeds = seeds[:probeSeeds]
		}
		if len(seeds) == 0 {
			continue
		}
		v, err := probeLayers(layerInput{
			Target: t.name, Protocol: t.protocol, GenSeed: c.seed, Seeds: seeds, WorkDir: c.work,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		for k, x := range v {
			sum[k] += x
			n[k]++
		}
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	o.merge(sum)
	recordUnaccounted(o, sum)
	return nil
}
