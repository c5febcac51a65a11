package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/validate"
	"github.com/pmrace-go/pmrace/internal/wire"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// This file is the outside-in replay harness behind the per-layer metrics:
// each layer is timed by calling its public functions from here, on the
// workload's own inputs — the seeds its campaigns saved through
// WithCorpusDir, the per-execution statistics and coverage maps those seeds
// produce, and the crash states their findings capture.

// The engine's default input shape, which every campaign of the benchmark
// uses: threads per execution, key space and operations per generated seed.
const (
	seedThreads = 4
	keySpace    = 16
	opsPerSeed  = 48
)

// layerInput is one workload target's inputs.
type layerInput struct {
	Target   string
	Protocol bool
	GenSeed  int64
	Seeds    []*workload.Seed
	// WorkDir receives the artifact bundles the probe writes.
	WorkDir string
}

// layerValues maps per-layer metric name to value, in the units BENCHMARK.json
// declares.
type layerValues map[string]float64

// probeLayers runs every outside-in probe once over the input.
func probeLayers(in layerInput) (layerValues, error) {
	if len(in.Seeds) == 0 {
		return nil, fmt.Errorf("%s: no seeds to replay", in.Target)
	}
	factory := func() targets.Target {
		t, err := targets.New(in.Target)
		if err != nil {
			panic(err) // the campaigns already ran this target
		}
		return t
	}
	v := layerValues{}
	rep, err := replayExecutions(factory, in.Seeds, v)
	if err != nil {
		return nil, err
	}
	probeMutator(in, v)
	probeRuntime(factory().PoolSize(), rep.addrs, rep.entry, v)
	if err := probeTarget(factory, in.Seeds, v); err != nil {
		return nil, err
	}
	probeSched(rep, v)
	probeCoreCover(rep, v)
	probeWire(in, v)
	probeValidate(factory, rep, v)
	if err := probeArtifacts(in, rep, v); err != nil {
		return nil, err
	}
	return v, nil
}

// replay holds what the executor produced on the workload's seeds.
type replay struct {
	stats  []map[pmem.Addr]*sched.AddrStats
	covs   []*cover.Coverage
	incs   []fuzz.CapturedInconsistency
	syncs  []fuzz.CapturedSync
	seeds  []*workload.Seed // seed of each incs entry
	addrs  []pmem.Addr      // the addresses the executions shared, hottest first
	entry  *sched.Entry     // the hottest interleaving-queue entry
	merged map[pmem.Addr]*sched.AddrStats
}

const replayRounds = 3

// replayExecutions runs each seed through fuzz.Executor.Run with sched.None
// (the execution tier's strategy). The first round captures the findings
// with their crash states, as a campaign does on first sight; the timed
// rounds (fuzz.replay_exec_us) run with those findings known, so capture is
// skipped for duplicates exactly as in a campaign's steady state.
func replayExecutions(factory targets.Factory, seeds []*workload.Seed, v layerValues) (*replay, error) {
	db := core.NewDB()
	x := fuzz.NewExecutor(factory, fuzz.ExecOptions{
		UseCheckpoints: true, CollectStats: true, MaxCrashStates: 4,
		KnownInconsistency: db.HasInconsistency, KnownSync: db.HasSync,
	})
	rep := &replay{merged: map[pmem.Addr]*sched.AddrStats{}}
	var times samples
	for r := 0; r <= replayRounds; r++ {
		for _, s := range seeds {
			t0 := time.Now()
			res, err := x.Run(s, sched.None{})
			if r > 0 {
				times = append(times, float64(time.Since(t0).Microseconds()))
			}
			if err != nil {
				return nil, err
			}
			rep.stats = append(rep.stats, res.Stats)
			rep.covs = append(rep.covs, res.Coverage)
			for _, c := range res.Inconsistencies {
				if _, isNew := db.MergeInconsistency(c.In); isNew && len(c.States) > 0 && len(rep.incs) < 16 {
					rep.incs = append(rep.incs, c)
					rep.seeds = append(rep.seeds, s)
				}
			}
			for _, c := range res.Syncs {
				if _, isNew := db.MergeSync(c.Si); isNew && len(c.States) > 0 && len(rep.syncs) < 8 {
					rep.syncs = append(rep.syncs, c)
				}
			}
		}
	}
	v["fuzz.replay_exec_us"] = times.median()

	for _, m := range rep.stats {
		for a, st := range m {
			agg, ok := rep.merged[a]
			if !ok {
				agg = sched.NewAddrStats()
				rep.merged[a] = agg
			}
			agg.Merge(st)
		}
	}
	for a := range rep.merged {
		rep.addrs = append(rep.addrs, a)
	}
	sort.Slice(rep.addrs, func(i, j int) bool {
		ti, tj := rep.merged[rep.addrs[i]].Total, rep.merged[rep.addrs[j]].Total
		if ti != tj {
			return ti > tj
		}
		return rep.addrs[i] < rep.addrs[j]
	})
	rep.entry = sched.BuildQueue(rep.merged).Pop()
	return rep, nil
}

// probeMutator times one Mutate call of the workload's mutator over its
// corpus: fuzz.mutate_us.
func probeMutator(in layerInput, v layerValues) {
	var m fuzz.Mutator
	if in.Protocol {
		m = fuzz.NewProtoMutator(in.GenSeed, keySpace, seedThreads)
	} else {
		m = fuzz.NewOpMutator(keySpace, seedThreads, opsPerSeed)
	}
	rng := rand.New(rand.NewSource(in.GenSeed))
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.Mutate(rng, in.Seeds)
	}
	v["fuzz.mutate_us"] = float64(time.Since(t0).Nanoseconds()) / n / 1e3
}

// probeRuntime times the access hooks on the addresses the workload's
// executions shared: clean stores and loads, a store whose value carries a
// label from another thread's dirty read (the side-effect check with stack
// capture and taint events), a store to an annotated synchronization
// variable, and Env.EndExec under the interleaving strategy of the hottest
// queue entry.
func probeRuntime(poolSize uint64, addrs []pmem.Addr, entry *sched.Entry, v layerValues) {
	words := make([]pmem.Addr, 0, len(addrs))
	for _, a := range addrs {
		if a+8 <= pmem.Addr(poolSize) {
			words = append(words, a&^7)
		}
	}
	if len(words) < 3 {
		words = []pmem.Addr{0, 64, 128}
	}
	perOp := func(n int, f func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}

	env := rt.NewEnv(pmem.New(poolSize), rt.Config{})
	th := env.Spawn()
	v["rt.store_clean_ns"] = perOp(200_000, func(i int) {
		th.Store64(words[i%len(words)], uint64(i)+1, taint.None, taint.None)
	})
	for _, a := range words {
		th.Persist(a, 8)
	}
	v["rt.load_clean_ns"] = perOp(200_000, func(i int) { th.Load64(words[i%len(words)]) })
	th.Exit()

	env = rt.NewEnv(pmem.New(poolSize), rt.Config{})
	writer, reader := env.Spawn(), env.Spawn()
	writer.Store64(words[0], 42, taint.None, taint.None) // left unflushed
	_, lab := reader.Load64(words[0])
	v["rt.store_tainted_ns"] = perOp(20_000, func(i int) {
		reader.Store64(words[1+i%(len(words)-1)], uint64(i)+1, lab, taint.None)
	})
	writer.Exit()
	reader.Exit()

	env = rt.NewEnv(pmem.New(poolSize), rt.Config{})
	env.AnnotateSyncVar(core.SyncVar{Name: "perfbench-sync", Addr: words[0], Size: 8})
	th = env.Spawn()
	v["rt.sync_store_ns"] = perOp(50_000, func(i int) {
		th.Store64(words[0], uint64(i)+1, taint.None, taint.None)
	})
	th.Exit()

	var strat sched.Strategy = sched.None{}
	if entry != nil {
		strat = sched.NewPMAware(sched.DefaultConfig(), entry, 0)
	}
	env = rt.NewEnv(pmem.New(poolSize), rt.Config{Strategy: strat})
	v["rt.end_exec_us"] = perOp(20_000, func(int) {
		env.BeginExec(1)
		env.EndExec()
	}) / 1e3
}

// seedOps flattens a seed into the operations its execution dispatches: the
// op vector of a synthetic seed, the parsed commands of a protocol seed.
func seedOps(s *workload.Seed) []workload.Op {
	if s.Proto == nil {
		return s.Ops
	}
	var ops []workload.Op
	for _, stream := range s.Proto.Streams {
		p := wire.NewParser()
		p.Feed(stream)
		for {
			cmd, ok := p.Next()
			if !ok || cmd.Quit {
				break
			}
			ops = append(ops, cmd.Ops()...)
		}
	}
	return ops
}

// probeTarget replays each seed's operations single-threaded on a pool
// restored from the target's set-up checkpoint and times: Target.Exec per
// operation, Recover on the restored pool, Pool.Restore of the dirtied pool,
// Pool.CrashImage and Pool.CrashStates (max 4) halfway through the seed, and
// FromImage plus Recover on that crash image.
func probeTarget(factory targets.Factory, seeds []*workload.Seed, v layerValues) error {
	tgt := factory()
	base := pmem.New(tgt.PoolSize())
	benv := rt.NewEnv(base, rt.Config{})
	bth := benv.Spawn()
	if err := tgt.Setup(bth); err != nil {
		return fmt.Errorf("%s setup: %w", tgt.Name(), err)
	}
	bth.Exit()
	snap := base.Snapshot()
	pool := pmem.NewFromSnapshot(snap)

	var opT, recT, restT, imgT, statesT, crashRecT samples
	crashRecFailed := 0
	cfg := rt.Config{HangTimeout: 20 * time.Millisecond}
	for r := 0; r < replayRounds; r++ {
		for _, s := range seeds {
			t0 := time.Now()
			pool.Restore(snap)
			restT = append(restT, float64(time.Since(t0).Nanoseconds())/1e3)

			tgt := factory()
			th := rt.NewEnv(pool, cfg).Spawn()
			t0 = time.Now()
			if err := tgt.Recover(th); err != nil {
				return fmt.Errorf("%s recover on restored pool: %w", tgt.Name(), err)
			}
			recT = append(recT, float64(time.Since(t0).Nanoseconds())/1e3)

			ops := seedOps(s)
			var img []byte
			for i, op := range ops {
				if i == len(ops)/2 {
					t0 = time.Now()
					img = pool.CrashImage()
					imgT = append(imgT, float64(time.Since(t0).Nanoseconds())/1e3)
					if dw := pool.DirtyWords(1); len(dw) > 0 {
						t0 = time.Now()
						st := pool.CrashStates([]pmem.Range{{Off: dw[0].Addr, Len: 8}}, 4)
						statesT = append(statesT, float64(time.Since(t0).Nanoseconds())/1e3)
						pmem.RecycleStates(st)
					}
				}
				d, hung := timeOp(tgt, th, op)
				if hung {
					break // a leaked lock: the rest of the seed cannot run single-threaded
				}
				opT = append(opT, d)
			}
			th.Exit()
			if img == nil {
				continue
			}
			t0 = time.Now()
			rtg := factory()
			rth := rt.NewEnv(pmem.FromImage(img), cfg).Spawn()
			if err := recoverCatching(rtg, rth); err != nil {
				// A seeded bug can leave an image recovery rejects; the
				// time is still the layer's cost.
				crashRecFailed++
			}
			crashRecT = append(crashRecT, float64(time.Since(t0).Nanoseconds())/1e3)
			rth.Exit()
		}
	}
	v["target.crash_recover_failed"] = float64(crashRecFailed)
	v["target.op_us"] = opT.median()
	v["target.recover_us"] = recT.median()
	v["target.crash_recover_us"] = crashRecT.median()
	v["pmem.restore_us"] = restT.median()
	v["pmem.crash_image_us"] = imgT.median()
	v["pmem.crash_states_us"] = statesT.median()
	total := 0
	for _, s := range seeds {
		total += len(seedOps(s))
	}
	v["target.ops_per_exec"] = float64(total) / float64(len(seeds))
	return nil
}

// timeOp runs one operation, reporting its duration in microseconds and
// whether it hung on a lock.
func timeOp(tgt targets.Target, th *rt.Thread, op workload.Op) (us float64, hung bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(rt.HangError); !ok {
				panic(r)
			}
			hung = true
		}
	}()
	t0 := time.Now()
	_ = tgt.Exec(th, op) // protocol errors (NOT_FOUND, malformed frames) are normal traffic
	return float64(time.Since(t0).Nanoseconds()) / 1e3, false
}

// recoverCatching runs Recover, turning a hang into an error.
func recoverCatching(tgt targets.Target, th *rt.Thread) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(rt.HangError); !ok {
				panic(r)
			}
			err = fmt.Errorf("recovery hung")
		}
	}()
	return tgt.Recover(th)
}

// probeSched times folding one execution's per-address statistics into the
// campaign aggregate (AddrStats.Merge over every address, as the fuzzer does
// per execution) and building the interleaving queue from the aggregate.
func probeSched(rep *replay, v layerValues) {
	agg := map[pmem.Addr]*sched.AddrStats{}
	var mergeT samples
	for _, m := range rep.stats {
		t0 := time.Now()
		for a, st := range m {
			x, ok := agg[a]
			if !ok {
				x = sched.NewAddrStats()
				agg[a] = x
			}
			x.Merge(st)
		}
		mergeT = append(mergeT, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	v["sched.stats_merge_us"] = mergeT.median()
	const n = 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sched.BuildQueue(agg)
	}
	v["sched.build_queue_us"] = float64(time.Since(t0).Nanoseconds()) / n / 1e3
}

// probeCoreCover times the result database's duplicate-merge path (every
// re-detection of a known finding takes it) and the per-execution coverage
// merge into the campaign map.
func probeCoreCover(rep *replay, v layerValues) {
	db := core.NewDB()
	for _, c := range rep.incs {
		db.MergeInconsistency(c.In)
	}
	if len(rep.incs) > 0 {
		const n = 20_000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			db.MergeInconsistency(rep.incs[i%len(rep.incs)].In)
		}
		v["core.db_merge_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	}
	global := cover.New()
	var mergeT samples
	for _, c := range rep.covs {
		t0 := time.Now()
		global.Merge(c)
		mergeT = append(mergeT, float64(time.Since(t0).Nanoseconds()))
	}
	v["cover.merge_ns"] = mergeT.median()
}

// probeWire parses the workload's protocol streams with the wire parser. A
// synthetic workload parses nothing per execution (wire.cmds_per_exec 0); its
// parse cost is measured on generated traffic over its own key space as the
// control that should not move with synthetic-path changes.
func probeWire(in layerInput, v layerValues) {
	var streams [][]byte
	cmdsPerExec := 0.0
	if in.Protocol {
		for _, s := range in.Seeds {
			if s.Proto != nil {
				streams = append(streams, s.Proto.Streams...)
				cmdsPerExec += float64(s.Proto.Commands())
			}
		}
		cmdsPerExec /= float64(len(in.Seeds))
	} else {
		pg := workload.NewProtoGen(in.GenSeed, keySpace, seedThreads)
		streams = pg.MixSeed(seedThreads*2, opsPerSeed/2).Proto.Streams
	}
	v["wire.cmds_per_exec"] = cmdsPerExec
	images := 0
	for _, s := range in.Seeds {
		if s.Proto != nil {
			images += min(len(s.Proto.Crash), 4) // the executor's per-exec cap
		}
	}
	v["pmem.crash_images_per_exec"] = float64(images) / float64(len(in.Seeds))
	cmds := 0
	t0 := time.Now()
	for r := 0; r < 50; r++ {
		for _, b := range streams {
			p := wire.NewParser()
			p.Feed(b)
			for {
				if _, ok := p.Next(); !ok {
					break
				}
				cmds++
			}
		}
	}
	if cmds > 0 {
		v["wire.parse_ns_per_cmd"] = float64(time.Since(t0).Nanoseconds()) / float64(cmds)
	}
}

// probeValidate runs post-failure validation on the crash states the
// replayed findings captured: validate.state_us is the time per state.
func probeValidate(factory targets.Factory, rep *replay, v layerValues) {
	opts := validate.Options{Whitelist: core.NewWhitelist(pmdk.DefaultWhitelist()...)}
	var perState samples
	for _, c := range rep.incs {
		t0 := time.Now()
		validate.Inconsistency(factory, c.States, c.In, opts)
		perState = append(perState, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(c.States)))
	}
	for _, c := range rep.syncs {
		t0 := time.Now()
		validate.Sync(factory, c.States, c.Si, opts)
		perState = append(perState, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(c.States)))
	}
	if len(perState) > 0 {
		v["validate.state_us"] = perState.median()
	}
}

// probeArtifacts writes one forensic bundle per replayed finding.
func probeArtifacts(in layerInput, rep *replay, v layerValues) error {
	dir := filepath.Join(in.WorkDir, "probe-artifacts-"+in.Target)
	defer os.RemoveAll(dir)
	w, err := artifact.NewWriter(dir)
	if err != nil {
		return err
	}
	var writeT samples
	for i, c := range rep.incs {
		bug := artifact.FromInconsistency(in.Target, seedThreads, c.In, core.StatusBug, artifact.Validation{})
		// The writer deduplicates by fingerprint; each replayed capture is
		// written as a bundle of its own.
		bug.Fingerprint = fmt.Sprintf("%s#%d", bug.Fingerprint, i)
		t0 := time.Now()
		if _, err := w.Write(&artifact.Bundle{
			Bug:    bug,
			Seed:   rep.seeds[i].Encode(),
			Trace:  artifact.ConvertTrace(c.Trace),
			PMDiff: artifact.ConvertDirty(c.Dirty),
		}); err != nil {
			return err
		}
		writeT = append(writeT, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	v["artifact.bundles"] = float64(len(writeT))
	if len(writeT) > 0 {
		v["artifact.write_ms"] = writeT.median()
	}
	return nil
}
