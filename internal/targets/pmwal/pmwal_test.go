package pmwal

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func setup(t *testing.T, w *WAL) (*rt.Env, *rt.Thread) {
	t.Helper()
	env := rt.NewEnv(pmem.New(w.PoolSize()), rt.Config{})
	th := env.Spawn()
	if err := w.Setup(th); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return env, th
}

func TestRegistered(t *testing.T) {
	tgt, err := targets.New("pmwal")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if tgt.Annotations() != 0 {
		t.Fatalf("pmwal uses a volatile log lock; no annotations expected")
	}
}

func TestPutGetDelete(t *testing.T) {
	w := New()
	_, th := setup(t, w)
	if err := w.Put(th, "greeting", []byte("hello world")); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, ok := w.Get(th, "greeting")
	if !ok || string(v) != "hello world" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if _, ok := w.Get(th, "absent"); ok {
		t.Fatalf("absent key found")
	}
	if !w.Delete(th, "greeting") {
		t.Fatalf("delete failed")
	}
	if _, ok := w.Get(th, "greeting"); ok {
		t.Fatalf("deleted key found")
	}
	if w.Delete(th, "greeting") {
		t.Fatalf("double delete must report false")
	}
}

func TestPutOverwriteKeepsLatest(t *testing.T) {
	w := New()
	_, th := setup(t, w)
	w.Put(th, "k", []byte("one"))
	w.Put(th, "k", []byte("two"))
	v, _ := w.Get(th, "k")
	if string(v) != "two" {
		t.Fatalf("get = %q", v)
	}
	if w.Live() != 1 {
		t.Fatalf("live = %d, want 1", w.Live())
	}
}

func TestConcatAndArith(t *testing.T) {
	w := New()
	_, th := setup(t, w)
	w.Put(th, "k", []byte("mid"))
	if err := w.Concat(th, "k", []byte("-end"), true); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Concat(th, "k", []byte("start-"), false); err != nil {
		t.Fatalf("prepend: %v", err)
	}
	if v, _ := w.Get(th, "k"); string(v) != "start-mid-end" {
		t.Fatalf("value = %q", v)
	}
	w.Put(th, "n", []byte("10"))
	w.Arith(th, "n", "5", true)
	if v, _ := w.Get(th, "n"); string(v) != "15" {
		t.Fatalf("incr -> %q", v)
	}
	w.Arith(th, "n", "20", false)
	if v, _ := w.Get(th, "n"); string(v) != "0" {
		t.Fatalf("decr floor -> %q", v)
	}
}

func TestLimitsRejected(t *testing.T) {
	w := New()
	_, th := setup(t, w)
	if err := w.Put(th, strings.Repeat("k", maxKey+1), []byte("v")); err == nil {
		t.Fatalf("oversized key accepted")
	}
	if err := w.Put(th, "k", make([]byte, maxVal+1)); err == nil {
		t.Fatalf("oversized value accepted")
	}
}

func TestCompactRewindsTail(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	for i := 0; i < 20; i++ {
		w.Put(th, fmt.Sprintf("key%02d", i%4), []byte(fmt.Sprintf("val%02d", i)))
	}
	w.Delete(th, "key00")
	before, _ := th.Load64(hdrTail)
	if err := w.Compact(th); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after, _ := th.Load64(hdrTail)
	if after >= before {
		t.Fatalf("compact did not rewind the tail: %d -> %d", before, after)
	}
	if w.Live() != 3 {
		t.Fatalf("live = %d, want 3", w.Live())
	}
	for i := 17; i < 20; i++ {
		k := fmt.Sprintf("key%02d", i%4)
		if v, ok := w.Get(th, k); !ok || string(v) != fmt.Sprintf("val%02d", i) {
			t.Fatalf("%s = %q %v after compact", k, v, ok)
		}
	}
	if _, ok := w.Get(th, "key00"); ok {
		t.Fatalf("deleted key resurrected by compact")
	}
	_ = env
}

// TestCompactTriggeredBySpacePressure: appends beyond the pool end must
// compact in place rather than fail while dead records exist.
func TestCompactTriggeredBySpacePressure(t *testing.T) {
	w := New()
	_, th := setup(t, w)
	big := make([]byte, maxVal)
	for i := 0; ; i++ {
		if err := w.Put(th, "hot", big); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if i > int(w.PoolSize()/recMax)+4 {
			break // wrote more bytes than the pool holds: compaction ran
		}
	}
	if v, ok := w.Get(th, "hot"); !ok || len(v) != maxVal {
		t.Fatalf("hot key lost under space pressure")
	}
}

// TestWAL1DirtyTailDetected: an append that reads another thread's
// unflushed tail pointer and durably writes its record there is the seeded
// inter-thread inconsistency WAL-1.
func TestWAL1DirtyTailDetected(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	w.Put(th, "warm", []byte("v"))
	// Emulate an append whose trailing tail persist has not run yet: the
	// writer re-stores the current tail value without flushing it.
	writer := env.Spawn()
	tail, _ := writer.Load64(hdrTail)
	writer.Store64(hdrTail, tail, taint.None, taint.None) //pmvet:ignore unflushed-store -- test emulates the WAL-1 dirty window
	reader := env.Spawn()
	if err := w.Put(reader, "race", []byte("payload")); err != nil {
		t.Fatalf("put: %v", err)
	}
	inters := 0
	for _, in := range env.Detector().Inconsistencies() {
		if in.Kind == core.KindInter {
			inters++
		}
	}
	if inters == 0 {
		t.Fatalf("append through a dirty tail must confirm an inter inconsistency (WAL-1)")
	}
}

// TestWAL2DirtyCommitMarkerDetected: compaction reads a commit marker that
// another thread stored but has not flushed, and durably rewinds the tail
// (and copies records) based on it — seeded bug WAL-2.
func TestWAL2DirtyCommitMarkerDetected(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	w.Put(th, "a", []byte("v1"))
	w.Put(th, "b", []byte("v2"))
	rec := w.index[targets.Fingerprint("a")]
	// Emulate an in-flight commit: re-store the checksum without flushing.
	writer := env.Spawn()
	sum, _ := writer.Load64(rec + rCksum)
	writer.Store64(rec+rCksum, sum, taint.None, taint.None) //pmvet:ignore unflushed-store -- test emulates the WAL-2 dirty window
	reader := env.Spawn()
	if err := w.Compact(reader); err != nil {
		t.Fatalf("compact: %v", err)
	}
	inters := 0
	for _, in := range env.Detector().Inconsistencies() {
		if in.Kind == core.KindInter {
			inters++
		}
	}
	if inters == 0 {
		t.Fatalf("compaction over a dirty commit marker must confirm an inter inconsistency (WAL-2)")
	}
}

// TestWAL3TornAppendDetected: a multi-line value is only partially flushed
// before the commit checksum reads it back, so the durable marker depends
// on the thread's own non-persisted stores — the seeded intra-thread
// inconsistency.
func TestWAL3TornAppendDetected(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	big := []byte(strings.Repeat("x", 200)) // spans 4 cache lines
	if err := w.Put(th, "torn", big); err != nil {
		t.Fatalf("put: %v", err)
	}
	intras := 0
	for _, in := range env.Detector().Inconsistencies() {
		if in.Kind == core.KindIntra {
			intras++
		}
	}
	if intras == 0 {
		t.Fatalf("torn multi-line append must confirm an intra inconsistency (WAL-3): %+v",
			env.Detector().Inconsistencies())
	}
}

// TestFixedVariantClean: NewFixed persists everything before publication,
// so the same workloads produce zero dirty-read candidates.
func TestFixedVariantClean(t *testing.T) {
	w := NewFixed()
	env, th := setup(t, w)
	big := []byte(strings.Repeat("x", 200))
	for i := 0; i < 10; i++ {
		w.Put(th, fmt.Sprintf("k%d", i%3), big)
	}
	w.Delete(th, "k0")
	w.Compact(th)
	w.Put(th, "post", []byte("v"))
	if got := len(env.Detector().Candidates()); got != 0 {
		t.Fatalf("fixed variant produced %d dirty-read candidates", got)
	}
}

func TestRecoveryReplaysLog(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	for i := 0; i < 10; i++ {
		w.Put(th, fmt.Sprintf("key%02d", i), []byte(fmt.Sprintf("val%02d", i)))
	}
	w.Put(th, "key03", []byte("newer"))
	w.Delete(th, "key07")
	img := env.Pool().CrashImage()
	w2 := New()
	env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
	th2 := env2.Spawn()
	if err := w2.Recover(th2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if w2.Live() != 9 {
		t.Fatalf("recovered %d keys, want 9", w2.Live())
	}
	if v, ok := w2.Get(th2, "key03"); !ok || string(v) != "newer" {
		t.Fatalf("replay must keep the latest version: %q %v", v, ok)
	}
	if _, ok := w2.Get(th2, "key07"); ok {
		t.Fatalf("tombstone ignored during replay")
	}
	// The log must remain appendable: sequence numbers continue.
	if err := w2.Put(th2, "post-crash", []byte("alive")); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if v, ok := w2.Get(th2, "post-crash"); !ok || string(v) != "alive" {
		t.Fatalf("post-recovery structure unusable: %q %v", v, ok)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	w.Put(th, "good", []byte("value"))
	goodEnd, _ := th.Load64(hdrTail)
	// Fake a torn append: advance the tail over a record whose checksum
	// was never written (all-zero header fails validation).
	th.NTStore64(goodEnd+rSize, recMin, taint.None, taint.None)
	th.NTStore64(goodEnd+rKind, kindPut, taint.None, taint.None)
	th.NTStore64(hdrTail, goodEnd+recMin, taint.None, taint.None)
	th.Fence()
	img := env.Pool().CrashImage()
	w2 := New()
	env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
	th2 := env2.Spawn()
	if err := w2.Recover(th2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, ok := w2.Get(th2, "good"); !ok {
		t.Fatalf("intact record must survive the torn tail")
	}
	if w2.Live() != 1 {
		t.Fatalf("torn record replayed: live=%d", w2.Live())
	}
	if tail, _ := th2.Load64(hdrTail); tail != goodEnd {
		t.Fatalf("recovery must rewind the tail over the torn record: %d, want %d", tail, goodEnd)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	w := New()
	env, th := setup(t, w)
	w.Put(th, "stable", []byte("v"))
	img := env.Pool().CrashImage()
	for i := 0; i < 2; i++ {
		w2 := New()
		env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{})
		th2 := env2.Spawn()
		if err := w2.Recover(th2); err != nil {
			t.Fatalf("recover %d: %v", i, err)
		}
		if _, ok := w2.Get(th2, "stable"); !ok {
			t.Fatalf("recover %d lost data", i)
		}
		img = env2.Pool().CrashImage()
	}
}

func TestRecoverUninitializedPoolFails(t *testing.T) {
	w := New()
	env := rt.NewEnv(pmem.New(w.PoolSize()), rt.Config{})
	if err := w.Recover(env.Spawn()); err == nil {
		t.Fatalf("recover on raw pool must fail")
	}
}

func TestExecDispatchAllOps(t *testing.T) {
	w := New()
	_, th := setup(t, w)
	ops := []workload.Op{
		{Kind: workload.OpSet, Key: "a", Value: "1"},
		{Kind: workload.OpAdd, Key: "a", Value: "2"},      // NOT_STORED
		{Kind: workload.OpAdd, Key: "b", Value: "2"},      // stored
		{Kind: workload.OpReplace, Key: "zz", Value: "x"}, // NOT_STORED
		{Kind: workload.OpReplace, Key: "a", Value: "3"},
		{Kind: workload.OpAppend, Key: "a", Value: "4"},
		{Kind: workload.OpPrepend, Key: "a", Value: "0"},
		{Kind: workload.OpIncr, Key: "n", Value: "7"},
		{Kind: workload.OpDecr, Key: "n", Value: "3"},
		{Kind: workload.OpGet, Key: "a"},
		{Kind: workload.OpBGet, Key: "a"},
		{Kind: workload.OpDelete, Key: "b"},
		{Kind: workload.OpFlushAll},
	}
	for _, op := range ops {
		if err := w.Exec(th, op); err != nil {
			t.Fatalf("%v: %v", op.Kind, err)
		}
	}
	if err := w.Exec(th, workload.Op{Kind: workload.OpError, Raw: "nonsense"}); err == nil {
		t.Fatalf("error op must report an error")
	}
	if v, _ := w.Get(th, "a"); string(v) != "034" {
		t.Fatalf("a = %q", v)
	}
	if v, _ := w.Get(th, "n"); string(v) != "4" {
		t.Fatalf("n = %q", v)
	}
}

// TestCampaignFindsSeededBugs: a short protocol-traffic campaign over the
// buggy log detects PM inconsistencies, and the same campaign over the
// fixed variant detects none — the bug inventory is real and the detector
// is not pattern-matching noise. Protocol mode matters here: torn
// multi-line appends (WAL-3) need multi-line values and compaction (WAL-2)
// is driven by flush_all frames, both of which the traffic generator
// produces and the synthetic op generator does not.
func TestCampaignFindsSeededBugs(t *testing.T) {
	opts := fuzz.Options{
		Threads:    4,
		KeySpace:   6,
		OpsPerSeed: 30,
		MaxExecs:   60,
		Duration:   60 * time.Second,
		Seed:       11,
		Protocol:   true,
	}
	fz := fuzz.NewWithFactory(func() targets.Target { return New() }, opts)
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.DB.Inconsistencies()) == 0 {
		t.Fatalf("campaign over the seeded log detected nothing")
	}

	fzFixed := fuzz.NewWithFactory(func() targets.Target { return NewFixed() }, opts)
	resFixed, err := fzFixed.Run()
	if err != nil {
		t.Fatalf("fixed run: %v", err)
	}
	if n := len(resFixed.DB.Inconsistencies()); n != 0 {
		t.Fatalf("fixed variant still detected %d inconsistencies: %+v", n, resFixed.DB.Inconsistencies())
	}
}

// pmwalSeededGroups are pmwal's seeded bug groups, keyed like the P-CLHT
// oracle in internal/fuzz: WAL-1 (the dirty tail, written at :259), WAL-2
// (the dirty commit marker, :252) and WAL-3 (the torn append, :240).
var pmwalSeededGroups = []string{
	"inter|pmwal.go:259",
	"inter|pmwal.go:252",
	"intra|pmwal.go:240",
}

// TestPMWALSeededBugs is pmwal's per-group recall oracle: 100-execution
// protocol-traffic campaigns at one worker, on seeds 1..5, must together
// confirm every seeded group. The test stops at the first seed that
// completes the set.
func TestPMWALSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("up to five fuzzing campaigns")
	}
	found := map[string]bool{}
	var missing []string
	for seed := int64(1); seed <= 5; seed++ {
		fz, err := fuzz.New("pmwal", fuzz.Options{
			Workers:  1,
			Seed:     seed,
			MaxExecs: 100,
			Duration: 60 * time.Second,
			Protocol: true,
		})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		res, err := fz.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		groups := map[string]bool{}
		for _, j := range res.DB.Inconsistencies() {
			if j.Status != core.StatusBug {
				continue
			}
			fp := fuzz.NormalizeFingerprint(j.Fingerprint())
			kind, rest, _ := strings.Cut(fp, "|")
			write, _, _ := strings.Cut(rest, "->")
			groups[kind+"|"+write] = true
			found[kind+"|"+write] = true
		}
		t.Logf("seed %d: %d execs, groups %v", seed, res.Execs, groups)
		missing = nil
		for _, g := range pmwalSeededGroups {
			if !found[g] {
				missing = append(missing, g)
			}
		}
		if len(missing) == 0 {
			break
		}
	}
	for _, g := range missing {
		t.Errorf("seeded group %s not confirmed by any campaign", g)
	}
}
