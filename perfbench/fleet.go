package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/client"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/serve"
)

// fleetServer is pmraced's supervisor behind /api/v1 on a loopback port.
type fleetServer struct {
	sup  *serve.Supervisor
	srv  *http.Server
	done chan error
	base string
	cl   *client.Client
}

// startFleet starts a supervisor and returns once its first Info reply
// arrived, with the time that took (the fleet's setup_s).
func startFleet(ctx context.Context, dataDir string, budget, traceSample int) (*fleetServer, time.Duration, error) {
	t0 := time.Now()
	sup, err := serve.New(serve.Config{WorkerBudget: budget, DataDir: dataDir, TraceSample: traceSample})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sup.Drain(ctx)
		return nil, 0, err
	}
	f := &fleetServer{sup: sup, srv: &http.Server{Handler: sup.Handler()}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { f.done <- f.srv.Serve(ln) }()
	f.cl = client.New(f.base)
	if _, err := f.cl.Info(ctx); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(t0), nil
}

// close drains the supervisor, shuts the HTTP server down and waits for its
// serve loop to return.
func (f *fleetServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.sup.Drain(ctx)
	_ = f.srv.Shutdown(ctx)
	if err := <-f.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// scrape returns the /metrics exposition.
func (f *fleetServer) scrape(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// batchCampaign is one submitted spec's record.
type batchCampaign struct {
	spec      api.CampaignSpec
	submitted time.Time
	doc       *api.Campaign
	err       error
	// findExecs/foundAt: executions until, and the moment when, every
	// expected group was confirmed, read from the campaign's event stream.
	findExecs int
	foundAt   time.Time
	durs      []time.Duration // every ExecDone's duration
}

// batch is one closed batch of specs submitted back to back and waited on.
type batch struct {
	start     time.Time
	makespan  time.Duration
	campaigns []*batchCampaign
	submitMs  samples
	getMs     samples
	metrics   string // /metrics after the batch, when scraped
	dataDir   string
}

// runBatch starts a supervisor with a worker budget of nproc, submits specs
// back to back through the client, follows each campaign's event stream and
// polls it until every campaign is terminal.
func runBatch(ctx context.Context, dataDir string, specs []api.CampaignSpec, expected map[string][]string, scrape bool) (*batch, error) {
	traceSample := -1
	for _, s := range specs {
		if s.TraceSample > 0 {
			traceSample = s.TraceSample
		}
	}
	f, _, err := startFleet(ctx, dataDir, runtime.NumCPU(), traceSample)
	if err != nil {
		return nil, err
	}
	defer f.close()
	b := &batch{dataDir: dataDir}
	var watchers sync.WaitGroup
	wctx, stopWatch := context.WithCancel(ctx)
	defer func() { stopWatch(); watchers.Wait() }()

	b.start = time.Now()
	for _, spec := range specs {
		bc := &batchCampaign{spec: spec, submitted: time.Now()}
		b.campaigns = append(b.campaigns, bc)
		doc, err := f.cl.Submit(ctx, spec)
		b.submitMs = append(b.submitMs, float64(time.Since(bc.submitted).Microseconds())/1e3)
		if err != nil {
			bc.err = err
			continue
		}
		bc.doc = doc
		watchers.Add(1)
		go func(id string) {
			defer watchers.Done()
			follow(wctx, f.cl, id, bc, expected[spec.Target])
		}(doc.ID)
	}

	deadline := time.Now().Add(160 * time.Second)
	for {
		pending := 0
		for _, bc := range b.campaigns {
			if bc.doc == nil || bc.doc.State.Terminal() {
				continue
			}
			t0 := time.Now()
			doc, err := f.cl.Get(ctx, bc.doc.ID)
			b.getMs = append(b.getMs, float64(time.Since(t0).Microseconds())/1e3)
			if err != nil {
				return nil, err
			}
			bc.doc = doc
			if !doc.State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet batch did not finish within 160s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var last time.Time
	for _, bc := range b.campaigns {
		if bc.doc != nil && bc.doc.Finished.After(last) {
			last = bc.doc.Finished
		}
	}
	b.makespan = last.Sub(b.start)
	watchers.Wait()
	if scrape {
		if b.metrics, err = f.scrape(ctx); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// follow reads a campaign's event stream until it ends and notes when its
// expected groups were all confirmed.
func follow(ctx context.Context, cl *client.Client, id string, bc *batchCampaign, expected []string) {
	ch, _, err := cl.Events(ctx, id)
	if err != nil {
		return
	}
	lastExec := 0
	found := map[string]bool{}
	for ev := range ch {
		switch e := ev.(type) {
		case *obs.ExecDone:
			lastExec = e.Exec
			bc.durs = append(bc.durs, e.Duration)
		case *obs.BugConfirmed:
			found[groupOfEvent(e)] = true
			if bc.findExecs == 0 && len(expected) > 0 && len(missing(expected, found)) == 0 {
				bc.findExecs = max(lastExec, 1)
				bc.foundAt = time.Now()
			}
		}
	}
}

// fleetTargets is the fleet's batch: four synthetic and two protocol specs.
// Execution budgets are sized so each campaign takes about two seconds on a
// 2-CPU host: with no campaign much longer than the rest, the batch's
// makespan does not hinge on one campaign's luck.
var fleetTargets = []struct {
	name     string
	protocol bool
	execs    int
}{
	{"cceh", false, 400}, {"fastfair", false, 400}, {"clevel", false, 300}, {"pclht", false, 300},
	{"memcached", true, 300}, {"pmwal", true, 120},
}

// fleetSpecs returns the batch in its fixed submission order. The order sets
// how FIFO admission packs the campaigns onto the workers; drawing it from
// the run seed raised the makespan's spread over ten runs from 0.06 to 0.17.
func fleetSpecs(traceSample int) []api.CampaignSpec {
	var specs []api.CampaignSpec
	for _, t := range fleetTargets {
		specs = append(specs, api.CampaignSpec{
			Target:         t.name,
			Workers:        1,
			MaxExecs:       t.execs,
			Duration:       150 * time.Second,
			Seed:           1,
			Protocol:       t.protocol,
			MaxCrashStates: 4,
			Artifacts:      true,
			TraceSample:    traceSample,
		})
	}
	return specs
}

// runFleet is the fleet's end-to-end pass: 20 cold starts, then one batch
// per six seconds of --seconds, each on a fresh supervisor and data
// directory (a shared corpus would make later batches replay earlier ones'
// seeds). Cold starts are timed before any batch: right after a batch has
// written its artifact bundles they run up to three times slower. Metrics
// are medians over batches.
func runFleet(ctx context.Context, c runConfig, o *outcome) error {
	setups, err := fleetSetups(ctx, filepath.Join(c.work, "setup"), 20)
	if err != nil {
		return err
	}
	per := map[string]samples{}
	for i := 0; i < max(1, c.seconds/6); i++ {
		b, err := runBatch(ctx, filepath.Join(c.work, fmt.Sprintf("fleet-%d", i)), fleetSpecs(0), c.expected, false)
		if err != nil {
			return err
		}
		bo := newOutcome()
		recordBatch(b, c.expected, bo)
		o.attempted += bo.attempted
		o.failures = append(o.failures, bo.failures...)
		for k, v := range bo.values {
			per[k] = append(per[k], v)
		}
	}
	for k, s := range per {
		o.set(k, s.median(), s)
	}
	o.set("setup_s", setups.median(), setups)
	return nil
}

// fleetSetups times n cold starts: supervisor start, through its first Info
// reply, to the first execution of the batch's first spec submitted to it —
// as the campaign workloads time start to first ExecDone. Start to first
// Info alone is under a millisecond, and its median moved between 0.8 and
// 3.6 ms from one process to the next.
func fleetSetups(ctx context.Context, work string, n int) (samples, error) {
	spec := fleetSpecs(0)[0]
	spec.MaxExecs, spec.Artifacts = 3, false
	var s samples
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f, _, err := startFleet(ctx, filepath.Join(work, strconv.Itoa(i)), runtime.NumCPU(), -1)
		if err != nil {
			return nil, err
		}
		d, err := firstExec(ctx, f.cl, spec, t0)
		f.close()
		if err != nil {
			return nil, err
		}
		s = append(s, d.Seconds())
	}
	return s, nil
}

// firstExec submits spec and returns the time from t0 until the campaign's
// document counts an execution. It polls Get back to back: the event stream
// only carries events emitted after it attaches, and with one P the first
// execution runs before the subscription does. It then waits for the
// campaign to end.
func firstExec(ctx context.Context, cl *client.Client, spec api.CampaignSpec, t0 time.Time) (time.Duration, error) {
	doc, err := cl.Submit(ctx, spec)
	if err != nil {
		return 0, err
	}
	var d time.Duration
	deadline := time.Now().Add(30 * time.Second)
	for !doc.State.Terminal() {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s: campaign %s did not end within 30s", spec.Target, doc.ID)
		}
		if d == 0 && doc.Stats.Execs > 0 {
			d = time.Since(t0)
		}
		if doc, err = cl.Get(ctx, doc.ID); err != nil {
			return 0, err
		}
	}
	if d == 0 && doc.Stats.Execs > 0 {
		d = time.Since(t0)
	}
	if d == 0 {
		return 0, fmt.Errorf("%s: campaign %s ended %s without an execution", spec.Target, doc.ID, doc.State)
	}
	return d, nil
}

// recordBatch turns a batch into the end-to-end metrics and checks each
// campaign's state and expected groups; groups a campaign missed are hunted
// by follow-up campaigns, as for the campaign-list workloads.
func recordBatch(b *batch, expected map[string][]string, o *outcome) {
	execs, cov := 0, 0
	var s2d, fe, fs samples
	hunting := 0
	for _, bc := range b.campaigns {
		switch {
		case bc.err != nil:
			o.op(fmt.Sprintf("%s: submit refused: %v", bc.spec.Target, bc.err))
			continue
		case bc.doc.State != api.StateDone:
			o.op(fmt.Sprintf("%s %s: ended %s %s", bc.spec.Target, bc.doc.ID, bc.doc.State, bc.doc.Error))
			continue
		}
		d := bc.doc
		execs += d.Stats.Execs
		cov += d.Stats.BranchCov + d.Stats.AliasCov
		s2d = append(s2d, d.Finished.Sub(bc.submitted).Seconds())
		found := map[string]bool{}
		for _, bug := range d.Bugs {
			found[groupOfFingerprint(bug.Fingerprint)] = true
		}
		o.op("")
		if m := missing(expected[d.Spec.Target], found); len(m) > 0 {
			huntMissing(d.Spec.Target, d.Spec.Protocol, m, d.Spec.MaxExecs, o)
		}
		if len(expected[d.Spec.Target]) > 0 {
			hunting++
		}
		if bc.findExecs > 0 {
			fe = append(fe, float64(bc.findExecs))
			fs = append(fs, bc.foundAt.Sub(d.Started).Seconds())
		}
	}
	o.set("execs_per_s", float64(execs)/b.makespan.Seconds(), nil)
	o.set("cov_bits", float64(cov), nil)
	o.set("makespan_s", b.makespan.Seconds(), nil)
	o.set("submit_to_done_p50_s", s2d.median(), s2d)
	o.set("search.find_all_execs", fe.mean(), fe)
	o.set("search.find_all_s", fs.mean(), fs)
	o.set("search.found_all_share", ratio(len(fe), hunting), nil)
}
