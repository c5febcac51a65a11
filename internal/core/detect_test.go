package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

func newDet() *Detector { return NewDetector(taint.NewTable()) }

func interEvent(writeSite, readSite uint32, addr uint64) taint.Event {
	return taint.Event{Addr: addr, Epoch: 1, WriteSite: writeSite, ReadSite: readSite, Writer: 1, Reader: 2}
}

func intraEvent(writeSite, readSite uint32, addr uint64) taint.Event {
	return taint.Event{Addr: addr, Epoch: 1, WriteSite: writeSite, ReadSite: readSite, Writer: 3, Reader: 3}
}

// alwaysDirty keeps every test event (epoch 1) live; neverDirty settles
// them all.
func alwaysDirty(pmem.Addr) pmem.WordMeta { return pmem.WordMeta{Dirty: true} }
func neverDirty(pmem.Addr) pmem.WordMeta  { return pmem.WordMeta{} }

func TestOnDirtyReadRecordsCandidate(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	if lab == taint.None {
		t.Fatalf("dirty read must return a taint label")
	}
	cands := d.Candidates()
	if len(cands) != 1 || !cands[0].Inter() || cands[0].Count != 1 {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestCandidatesDeduplicateBySitePair(t *testing.T) {
	d := newDet()
	d.OnDirtyRead(interEvent(10, 20, 64))
	d.OnDirtyRead(interEvent(10, 20, 128)) // same site pair, different address
	d.OnDirtyRead(interEvent(10, 21, 64))  // different read site
	cands := d.Candidates()
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	if cands[0].Count != 2 {
		t.Fatalf("first candidate count = %d, want 2", cands[0].Count)
	}
}

func TestCandidateCounts(t *testing.T) {
	d := newDet()
	d.OnDirtyRead(interEvent(1, 2, 64))
	d.OnDirtyRead(intraEvent(3, 4, 128))
	d.OnDirtyRead(intraEvent(5, 6, 192))
	inter, intra := d.CandidateCounts()
	if inter != 1 || intra != 2 {
		t.Fatalf("counts = %d inter %d intra, want 1 and 2", inter, intra)
	}
}

func TestOnStoreConfirmsInterInconsistency(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{
		Thread: 2, Site: 99, Addr: 256, Size: 8,
		ValLab: lab, WordState: alwaysDirty,
	})
	if len(found) != 1 {
		t.Fatalf("found %d inconsistencies, want 1", len(found))
	}
	in := found[0]
	if in.Kind != KindInter || in.Flow != FlowValue {
		t.Fatalf("kind=%v flow=%v", in.Kind, in.Flow)
	}
	if in.SideEffect != (pmem.Range{Off: 256, Len: 8}) {
		t.Fatalf("side effect = %+v", in.SideEffect)
	}
	if in.DirtyRange.Off != 64 {
		t.Fatalf("dirty range = %+v", in.DirtyRange)
	}
}

func TestOnStoreAddressFlow(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{
		Thread: 2, Site: 99, Addr: 512, Size: 16,
		AddrLab: lab, WordState: alwaysDirty,
	})
	if len(found) != 1 || found[0].Flow != FlowAddress {
		t.Fatalf("found = %+v, want one address-flow inconsistency", found)
	}
}

func TestOnStoreIntraClassification(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(intraEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{Thread: 3, Site: 99, Addr: 256, Size: 8, ValLab: lab, WordState: alwaysDirty})
	if len(found) != 1 || found[0].Kind != KindIntra {
		t.Fatalf("found = %+v, want intra", found)
	}
}

func TestOnStoreSkipsPersistedEvents(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab, WordState: neverDirty})
	if len(found) != 0 {
		t.Fatalf("persisted dependency must not be an inconsistency, got %+v", found)
	}
	if len(d.Inconsistencies()) != 0 {
		t.Fatalf("nothing must be recorded")
	}
}

func TestOnStoreSkipsSelfOverwrite(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	// Storing over the dependent word itself is not a side effect.
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 64, Size: 8, ValLab: lab, WordState: alwaysDirty})
	if len(found) != 0 {
		t.Fatalf("self-overwrite must be skipped, got %+v", found)
	}
}

func TestOnStoreUntaintedIsNoop(t *testing.T) {
	d := newDet()
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 64, Size: 8, WordState: alwaysDirty})
	if len(found) != 0 {
		t.Fatalf("untainted store must not report, got %+v", found)
	}
}

func TestInconsistencyDeduplication(t *testing.T) {
	d := newDet()
	lab1 := d.OnDirtyRead(interEvent(10, 20, 64))
	d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab1, WordState: alwaysDirty})
	lab2 := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab2, WordState: alwaysDirty})
	if len(found) != 0 {
		t.Fatalf("duplicate must not be re-reported")
	}
	ins := d.Inconsistencies()
	if len(ins) != 1 || ins[0].Count != 2 {
		t.Fatalf("inconsistencies = %+v", ins)
	}
}

func TestMultipleEventsInOneLabel(t *testing.T) {
	d := newDet()
	a := d.OnDirtyRead(interEvent(10, 20, 64))
	b := d.OnDirtyRead(interEvent(11, 21, 128))
	u := d.Labels().Union(a, b)
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: u, WordState: alwaysDirty})
	if len(found) != 2 {
		t.Fatalf("found %d, want 2 (one per source event)", len(found))
	}
}

// TestOnStoreCapturesStackOnlyForNewFindings: the stack is built only for a
// store that records a new inconsistency, once however many it records, and
// is stored on every finding of that store.
func TestOnStoreCapturesStackOnlyForNewFindings(t *testing.T) {
	d := newDet()
	calls := 0
	stack := func() []string {
		calls++
		return []string{"target.go:7 target.(*T).Put"}
	}
	check := func(lab taint.Label, dirty func(pmem.Addr) pmem.WordMeta) StoreCheck {
		return StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab, Stack: stack, WordState: dirty}
	}

	found := d.OnStore(check(d.OnDirtyRead(interEvent(10, 20, 64)), alwaysDirty))
	if len(found) != 1 || calls != 1 {
		t.Fatalf("new finding: %d found, %d stack calls; want 1 and 1", len(found), calls)
	}
	if got := found[0].Stack; len(got) != 1 || got[0] != "target.go:7 target.(*T).Put" {
		t.Fatalf("stored stack = %q, want the Stack func's result", got)
	}

	calls = 0
	if found := d.OnStore(check(d.OnDirtyRead(interEvent(10, 20, 64)), alwaysDirty)); len(found) != 0 || calls != 0 {
		t.Fatalf("duplicate: %d found, %d stack calls; want 0 and 0", len(found), calls)
	}
	if found := d.OnStore(check(d.OnDirtyRead(interEvent(11, 20, 64)), neverDirty)); len(found) != 0 || calls != 0 {
		t.Fatalf("persisted source: %d found, %d stack calls; want 0 and 0", len(found), calls)
	}

	u := d.Labels().Union(d.OnDirtyRead(interEvent(12, 20, 64)), d.OnDirtyRead(interEvent(13, 20, 128)))
	found = d.OnStore(check(u, alwaysDirty))
	if len(found) != 2 || calls != 1 {
		t.Fatalf("two new findings in one store: %d found, %d stack calls; want 2 and 1", len(found), calls)
	}
}

// TestOnStoreSkipsStackForKnownFindings: a finding the campaign already
// holds is recorded without calling Stack; a new one still gets its stack.
func TestOnStoreSkipsStackForKnownFindings(t *testing.T) {
	d := newDet()
	calls := 0
	stack := func() []string {
		calls++
		return []string{"target.go:7 target.(*T).Put"}
	}
	known := map[[3]uint32]bool{inconKey(10, 99, KindInter): true}
	check := func(lab taint.Label) StoreCheck {
		return StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab, Stack: stack,
			Known: func(k [3]uint32) bool { return known[k] }, WordState: alwaysDirty}
	}

	found := d.OnStore(check(d.OnDirtyRead(interEvent(10, 20, 64))))
	if len(found) != 1 || calls != 0 || found[0].Stack != nil {
		t.Fatalf("known finding: %d found, %d stack calls, stack %q; want 1, 0, nil", len(found), calls, found[0].Stack)
	}
	found = d.OnStore(check(d.OnDirtyRead(interEvent(11, 20, 64))))
	if len(found) != 1 || calls != 1 || len(found[0].Stack) != 1 {
		t.Fatalf("new finding: %d found, %d stack calls, stack %q; want 1, 1, one frame", len(found), calls, found[0].Stack)
	}
}

// TestOnStoreStackPublishedWithFinding: readers of the inconsistency list
// never see a finding without its stack while stores record concurrently.
func TestOnStoreStackPublishedWithFinding(t *testing.T) {
	d := newDet()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lab := d.OnDirtyRead(interEvent(uint32(100*g+i), 20, 64))
				d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab,
					Stack: func() []string { return []string{"s.go:1 f"} }, WordState: alwaysDirty})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		for _, in := range d.Inconsistencies() {
			if len(in.Stack) != 1 {
				t.Fatalf("finding published without its stack: %+v", in)
			}
		}
		select {
		case <-done:
			if n := len(d.Inconsistencies()); n != 200 {
				t.Fatalf("recorded %d findings, want 200", n)
			}
			return
		default:
		}
	}
}

func TestSyncVarAnnotationAndDetection(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "bucket-lock", Addr: 128, Size: 8, InitVal: 0})
	si := d.OnSyncStore(1, 50, 128, 8, 0, 1, nil)
	if si == nil || si.Var.Name != "bucket-lock" || si.NewVal != 1 {
		t.Fatalf("sync inconsistency = %+v", si)
	}
	// Same site again: counted, not re-reported.
	if d.OnSyncStore(1, 50, 128, 8, 1, 0, nil) != nil {
		t.Fatalf("same update site must be reported once")
	}
	sis := d.SyncInconsistencies()
	if len(sis) != 1 || sis[0].Count != 2 {
		t.Fatalf("syncs = %+v", sis)
	}
	// Different site on the same var: new report.
	if d.OnSyncStore(2, 51, 128, 8, 0, 1, nil) == nil {
		t.Fatalf("different update site must be reported")
	}
}

func TestSyncStoreOutsideAnnotationIgnored(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "lock", Addr: 128, Size: 8})
	if d.OnSyncStore(1, 50, 136, 8, 0, 1, nil) != nil {
		t.Fatalf("store outside annotated range must be ignored")
	}
	if d.OnSyncStore(1, 50, 120, 8, 0, 1, nil) != nil {
		t.Fatalf("store before annotated range must be ignored")
	}
}

func TestSyncStoreOverlapDetected(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "lock", Addr: 128, Size: 16})
	if d.OnSyncStore(1, 50, 136, 8, 0, 1, nil) == nil {
		t.Fatalf("store overlapping annotated range must be detected")
	}
}

// TestSyncStoreFirstRegisteredOverlapWins pins the word index against the
// linear scan it replaced: a store touching several annotations reports the
// first registered one it overlaps, at byte granularity, across words.
func TestSyncStoreFirstRegisteredOverlapWins(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "wide", Addr: 200, Size: 24}) // words 200, 208, 216
	d.AnnotateSyncVar(SyncVar{Name: "narrow", Addr: 192, Size: 8})
	d.AnnotateSyncVar(SyncVar{Name: "inner", Addr: 208, Size: 8}) // inside "wide"
	d.AnnotateSyncVar(SyncVar{Name: "low-half", Addr: 256, Size: 4})
	d.AnnotateSyncVar(SyncVar{Name: "high-half", Addr: 260, Size: 4})
	cases := []struct {
		site       site.ID
		addr, size uint64
		want       string
	}{
		{60, 192, 8, "narrow"},    // only "narrow" overlaps
		{61, 192, 16, "wide"},     // spans "narrow" and "wide": "wide" registered first
		{62, 208, 8, "wide"},      // "inner" overlaps too, but "wide" came first
		{63, 216, 8, "wide"},      // last word of a multi-word annotation
		{64, 224, 8, ""},          // one past "wide"
		{65, 260, 4, "high-half"}, // same word as "low-half", no byte overlap with it
		{66, 258, 4, "low-half"},  // straddles both halves: first registered wins
		{67, 184, 16, "narrow"},   // starts before any annotation
		{68, 264, 8, ""},          // past every annotation
		{69, 204, 1, "wide"},      // a single byte inside a word
		{70, 199, 1, "narrow"},    // last byte of "narrow"
		{71, 190, 2, ""},          // ends where "narrow" begins
		{72, 220, 8, "wide"},      // crosses the end of "wide"
		{73, 224, 0, ""},          // empty store
		{74, 256, 0, ""},          // empty store at an annotation's start
		{75, 211, 2, "wide"},      // inside "inner", still "wide" first
		{76, 212, 8, "wide"},      // straddles "inner" and the next word of "wide"
		{77, 0, 8, ""},            // far away
		{78, 260, 8, "high-half"}, // "high-half" and the unannotated word after it
	}
	for _, c := range cases {
		si := d.OnSyncStore(1, c.site, pmem.Addr(c.addr), c.size, 0, 1, nil)
		got := ""
		if si != nil {
			got = si.Var.Name
		}
		if got != c.want {
			t.Errorf("store [%d,+%d) reported %q, want %q", c.addr, c.size, got, c.want)
		}
	}
	// Dedup is per (name, site): the same site on another instance of a
	// name counts, a new site reports again.
	d.AnnotateSyncVar(SyncVar{Name: "narrow", Addr: 512, Size: 8})
	if d.OnSyncStore(2, 60, 512, 8, 0, 1, nil) != nil {
		t.Fatalf("same (name, site) on another instance must be counted, not reported")
	}
	if d.OnSyncStore(2, 79, 512, 8, 0, 1, nil) == nil {
		t.Fatalf("new site must be reported")
	}
	if sis := d.SyncInconsistencies(); sis[0].Var.Name != "narrow" || sis[0].Count != 2 {
		t.Fatalf("first report = %+v, want narrow counted twice", sis[0])
	}
}

// TestSyncStoreMatchesLinearScan checks the word index against a brute-force
// scan of the registered variables in registration order, over random
// overlapping, repeated, empty and sub-word annotations and stores of 0 to 24
// bytes. An empty annotation covers no word, so no store reports it.
func TestSyncStoreMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		d := newDet()
		var vars []SyncVar
		for i := 0; i < 1+rng.Intn(12); i++ {
			v := SyncVar{Name: fmt.Sprintf("v%d", i), Addr: pmem.Addr(rng.Intn(96)), Size: uint64(rng.Intn(20))}
			if rng.Intn(4) == 0 && len(vars) > 0 { // re-annotate a registered range
				prev := vars[rng.Intn(len(vars))]
				v.Addr, v.Size = prev.Addr, prev.Size
			}
			vars = append(vars, v)
			d.AnnotateSyncVar(v)
		}
		for k := 0; k < 200; k++ {
			addr, size := pmem.Addr(rng.Intn(128)), uint64(rng.Intn(25))
			want := ""
			for _, v := range vars {
				if v.Size > 0 && addr+size > v.Addr && addr < v.Addr+v.Size {
					want = v.Name
					break
				}
			}
			got := ""
			// A fresh site per store keeps (name, site) dedup out of the way.
			if si := d.OnSyncStore(1, site.ID(1000+k), addr, size, 0, 1, nil); si != nil {
				got = si.Var.Name
			}
			if got != want {
				t.Fatalf("round %d: store [%d,+%d) over %+v reported %q, want %q", round, addr, size, vars, got, want)
			}
		}
	}
}

func TestSyncVarsAccessor(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "a", Addr: 0, Size: 8})
	d.AnnotateSyncVar(SyncVar{Name: "b", Addr: 8, Size: 8})
	if got := d.SyncVars(); len(got) != 2 || got[0].Name != "a" {
		t.Fatalf("SyncVars = %+v", got)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindInterCandidate: "Inter-Cand",
		KindIntraCandidate: "Intra-Cand",
		KindInter:          "Inter",
		KindIntra:          "Intra",
		KindSync:           "Sync",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if FlowValue.String() != "value" || FlowAddress.String() != "address" {
		t.Fatalf("flow strings wrong")
	}
}

func TestWhitelistMatch(t *testing.T) {
	w := NewWhitelist("pmdk_tx_alloc")
	if !w.MatchStack([]string{"target.go:10 doPut", "pmdk.go:55 pmdk_tx_alloc"}) {
		t.Fatalf("whitelist must match stack frame substring")
	}
	if w.MatchStack([]string{"target.go:10 doPut"}) {
		t.Fatalf("whitelist must not match unrelated stacks")
	}
	w.Add("items.go:42")
	if !w.MatchStack([]string{"items.go:42 rebuild"}) {
		t.Fatalf("added entry must match")
	}
	if len(w.Entries()) != 2 {
		t.Fatalf("entries = %v", w.Entries())
	}
}

func TestWhitelistMatchInconsistencyBySite(t *testing.T) {
	redo := site.Named("redo-log-alloc")
	d := newDet()
	lab := d.OnDirtyRead(taint.Event{Addr: 64, Epoch: 1, WriteSite: uint32(redo), ReadSite: 2, Writer: 1, Reader: 2})
	found := d.OnStore(StoreCheck{Thread: 2, Site: 9, Addr: 256, Size: 8, ValLab: lab, WordState: alwaysDirty})
	if len(found) != 1 {
		t.Fatalf("setup failed")
	}
	w := NewWhitelist("redo-log-alloc")
	if !w.MatchInconsistency(found[0]) {
		t.Fatalf("whitelist must match by write-site name")
	}
	if NewWhitelist("unrelated").MatchInconsistency(found[0]) {
		t.Fatalf("unrelated whitelist must not match")
	}
}
