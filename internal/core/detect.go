package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// Kind classifies a detected inconsistency.
type Kind int

const (
	// KindInterCandidate is a cross-thread read of non-persisted data.
	KindInterCandidate Kind = iota
	// KindIntraCandidate is a same-thread read of non-persisted data.
	KindIntraCandidate
	// KindInter is a PM Inter-thread Inconsistency: a durable side effect
	// based on non-persisted data written by another thread.
	KindInter
	// KindIntra is the same-thread variant.
	KindIntra
	// KindSync is a PM Synchronization Inconsistency.
	KindSync
)

// String returns the paper's abbreviation for the kind.
func (k Kind) String() string {
	switch k {
	case KindInterCandidate:
		return "Inter-Cand"
	case KindIntraCandidate:
		return "Intra-Cand"
	case KindInter:
		return "Inter"
	case KindIntra:
		return "Intra"
	case KindSync:
		return "Sync"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FlowKind distinguishes the two data flows that make a PM write a durable
// side effect (paper §4.3).
type FlowKind int

const (
	// FlowValue: the contents written to PM derive from non-persisted
	// data (unexpected data contents after a crash).
	FlowValue FlowKind = iota
	// FlowAddress: the target address of the PM store derives from
	// non-persisted data (inconsistent data layout, potential data loss —
	// the P-CLHT example).
	FlowAddress
)

func (f FlowKind) String() string {
	if f == FlowAddress {
		return "address"
	}
	return "value"
}

// Candidate records one deduplicated inconsistency candidate: a (write site,
// read site) pair observed reading non-persisted data.
type Candidate struct {
	Event taint.Event
	Count int // dynamic occurrences
}

// Inter reports whether the candidate crosses threads.
func (c *Candidate) Inter() bool { return c.Event.Inter() }

// Inconsistency records one confirmed PM inter- or intra-thread
// inconsistency: a durable side effect based on non-persisted data.
type Inconsistency struct {
	Kind Kind
	// Event is the dirty-read event the side effect depends on.
	Event taint.Event
	// StoreSite and StoreThread identify the durable side effect.
	StoreSite   site.ID
	StoreThread pmem.ThreadID
	// SideEffect is the byte range the side effect wrote; post-failure
	// validation checks whether recovery overwrites it.
	SideEffect pmem.Range
	// DirtyRange is the still-non-persisted range the side effect depends
	// on; the adversarial crash image persists SideEffect but not this.
	DirtyRange pmem.Range
	// Flow tells whether the dependency flows through the stored value or
	// the store address.
	Flow FlowKind
	// External marks a durable side effect outside the pool — a disk
	// write or data shared with another program (Definition 2 lists these
	// alongside PM writes). External effects cannot be overwritten by
	// recovery, so validation reports them as bugs unless whitelisted.
	External bool
	// Stack is the call stack at the side effect, for bug reports and
	// whitelist matching.
	Stack []string
	// Lineage is the full taint expansion of the label that made the store
	// a durable side effect: every dirty-read event the stored value (or
	// address) transitively derives from. Forensic artifacts persist it so
	// a triager can follow the data flow from the original non-persisted
	// store to the side effect without re-running the campaign.
	Lineage []taint.Event
	// Input is the encoded program input (operation sequence) of the
	// campaign that found the inconsistency (§4.1 step 6: reports carry
	// "corresponding program inputs").
	Input string
	// Count is the number of stores that reached the finding.
	Count int

	// store is the detector's number of the last store that counted
	// toward Count, so a store whose lineage reaches the finding through
	// many events counts once.
	store uint64
}

// Key returns the dedup key: inconsistencies with the same dirty write site
// and side-effect site are one report.
func (in *Inconsistency) Key() [3]uint32 {
	return inconKey(in.Event.WriteSite, in.StoreSite, in.Kind)
}

// Class is the finding's class label on every reporting surface: "inter"
// or "intra".
func (in *Inconsistency) Class() string {
	if in.Kind == KindInter {
		return "inter"
	}
	return "intra"
}

// GroupSite is the non-persisted write site the finding counts under as a
// unique bug (paper §6.2).
func (in *Inconsistency) GroupSite() site.ID { return site.ID(in.Event.WriteSite) }

// Fingerprint is the cross-process identity of the finding: class plus the
// resolved write, read and side-effect sites plus the flow kind. Replay,
// bundle dedup and pmraced's cross-campaign dedup match on it.
func (in *Inconsistency) Fingerprint() string {
	return fmt.Sprintf("%s|%s->%s=>%s|%s", in.Class(),
		site.Lookup(in.GroupSite()), site.Lookup(site.ID(in.Event.ReadSite)),
		site.Lookup(in.StoreSite), in.Flow)
}

// Summary is the finding's one-sentence human report.
func (in *Inconsistency) Summary() string {
	return fmt.Sprintf("read non-persisted data written at %s (read at %s), durable side effect at %s (%s flow)",
		site.Lookup(in.GroupSite()), site.Lookup(site.ID(in.Event.ReadSite)),
		site.Lookup(in.StoreSite), in.Flow)
}

func inconKey(writeSite uint32, store site.ID, kind Kind) [3]uint32 {
	k := uint32(0)
	if kind == KindIntra {
		k = 1
	}
	return [3]uint32{writeSite, uint32(store), k}
}

// AccessKind classifies one PM access of a finding's interleaving.
type AccessKind uint8

// Access kinds of an interleaving.
const (
	AccLoad AccessKind = iota
	AccStore
)

func (k AccessKind) String() string {
	if k == AccLoad {
		return "load"
	}
	return "store"
}

// Access is one PM access of a finding's interleaving; Seq numbers the
// accesses 1..n in order.
type Access struct {
	Seq    uint64
	Thread pmem.ThreadID
	Kind   AccessKind
	Addr   pmem.Addr
	Site   site.ID
}

// Interleaving returns the inconsistency's ordering evidence (paper
// Definition 2): for each lineage event its non-persisted store and the
// dirty load that read it, then the durable side effect.
func (in *Inconsistency) Interleaving() []Access {
	out := make([]Access, 0, 2*len(in.Lineage)+1)
	for _, ev := range in.Lineage {
		out = append(out,
			Access{Thread: pmem.ThreadID(ev.Writer), Kind: AccStore, Addr: ev.Addr, Site: site.ID(ev.WriteSite)},
			Access{Thread: pmem.ThreadID(ev.Reader), Kind: AccLoad, Addr: ev.Addr, Site: site.ID(ev.ReadSite)})
	}
	out = append(out, Access{Thread: in.StoreThread, Kind: AccStore, Addr: in.SideEffect.Off, Site: in.StoreSite})
	for i := range out {
		out[i].Seq = uint64(i + 1)
	}
	return out
}

// SyncVar is a programmer annotation for a persistent synchronization
// variable (paper §5): its pool offset, size and the value it must be
// re-initialized to after recovery.
type SyncVar struct {
	Name    string
	Addr    pmem.Addr
	Size    uint64
	InitVal uint64
}

// SyncInconsistency records one update of an annotated synchronization
// variable in PM. Updates are deduplicated by (variable name, update site):
// the paper checks "each type of update operation for only one time", and
// annotations share a name across instances of the same variable type (e.g.
// every bucket lock of a hash table is the one "bucket-lock" annotation).
type SyncInconsistency struct {
	Var SyncVar
	// Addr is the concrete updated address (one instance of the variable
	// type); post-failure validation checks this address against the
	// annotation's expected initial value.
	Addr   pmem.Addr
	Site   site.ID
	Thread pmem.ThreadID
	OldVal uint64
	NewVal uint64
	Stack  []string
	// Input is the encoded program input of the finding campaign.
	Input string
	Count int
}

// Interleaving returns the synchronization inconsistency's evidence: its
// one update store.
func (si *SyncInconsistency) Interleaving() []Access {
	return []Access{{Seq: 1, Thread: si.Thread, Kind: AccStore, Addr: si.Addr, Site: si.Site}}
}

// syncKey is the (variable name, update site) pair sync inconsistencies are
// deduplicated by, in the detector and in the result database.
type syncKey struct {
	name string
	site site.ID
}

func (si *SyncInconsistency) key() syncKey { return syncKey{si.Var.Name, si.Site} }

// Class is the synchronization finding's class label, "sync".
func (si *SyncInconsistency) Class() string { return "sync" }

// GroupSite is the update site reported as the finding's group site.
func (si *SyncInconsistency) GroupSite() site.ID { return si.Site }

// Fingerprint is the cross-process identity of the finding: the variable
// name and the resolved update site.
func (si *SyncInconsistency) Fingerprint() string {
	return fmt.Sprintf("sync|%s@%s", si.Var.Name, site.Lookup(si.Site))
}

// Summary is the finding's one-sentence human report.
func (si *SyncInconsistency) Summary() string {
	return fmt.Sprintf("persistent synchronization variable %q updated at %s is not re-initialized after restart",
		si.Var.Name, site.Lookup(si.Site))
}

// Detector implements the runtime PM checkers for one fuzz campaign.
type Detector struct {
	// mu guards the fields below labels. OnStore may hold it while it
	// expands a label and calls the store's WordState, Known and Stack
	// callbacks, so it is taken before the label table's lock, the pool's
	// and the campaign database's, never after.
	mu     sync.Mutex
	labels *taint.Table

	syncVars []SyncVar
	// syncWords maps each word an annotation overlaps to the index of the
	// first annotation registered on it, so a store looks up only the
	// variables on its own words. syncMore holds, in registration order,
	// the later annotations of the few words annotated more than once.
	syncWords map[pmem.Addr]int32
	syncMore  map[pmem.Addr][]int32
	// hasSync mirrors len(syncVars) > 0; the store hook polls it on every
	// store, so it is atomic instead of taking mu.
	hasSync atomic.Bool

	candidates map[[2]uint32]*Candidate // (writeSite, readSite)
	candList   [][2]uint32

	incons   map[[3]uint32]*Inconsistency
	inconOrd [][3]uint32
	// stores numbers the stores that took mu in OnStore (Inconsistency.store).
	stores uint64

	syncSeen map[syncKey]*SyncInconsistency
	syncOrd  []*SyncInconsistency

	redundant map[uint32]*RedundantStore
	redOrd    []uint32
}

// RedundantStore records a PM store site observed writing back the value the
// word already held. It is an example of the additional checkers the PMRace
// framework admits (§4.3 discusses checking unnecessary persistency
// operations); the paper's Bug 4 in P-CLHT — unnecessary bucket writes — was
// confirmed from such a report.
type RedundantStore struct {
	Site  site.ID
	Addr  pmem.Addr
	Count int
}

// NewDetector creates a detector sharing the given taint label table with the
// runtime.
func NewDetector(labels *taint.Table) *Detector {
	return &Detector{
		labels:     labels,
		candidates: make(map[[2]uint32]*Candidate),
		incons:     make(map[[3]uint32]*Inconsistency),
		syncWords:  make(map[pmem.Addr]int32),
		syncSeen:   make(map[syncKey]*SyncInconsistency),
		redundant:  make(map[uint32]*RedundantStore),
	}
}

// OnRedundantStore records that the store at site s wrote a value identical
// to the word's current contents. The runtime filters out zero-over-zero
// writes (initialization noise) before calling.
func (d *Detector) OnRedundantStore(s site.ID, addr pmem.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.redundant[uint32(s)]; ok {
		r.Count++
		return
	}
	d.redundant[uint32(s)] = &RedundantStore{Site: s, Addr: addr, Count: 1}
	d.redOrd = append(d.redOrd, uint32(s))
}

// RedundantStores returns the recorded redundant-store sites in detection
// order.
func (d *Detector) RedundantStores() []*RedundantStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*RedundantStore, 0, len(d.redOrd))
	for _, k := range d.redOrd {
		out = append(out, d.redundant[k])
	}
	return out
}

// Labels returns the detector's taint table.
func (d *Detector) Labels() *taint.Table { return d.labels }

// AnnotateSyncVar registers a persistent synchronization variable. It
// corresponds to the pm_sync_var_hint(size, init_val) annotation macro.
func (d *Detector) AnnotateSyncVar(v SyncVar) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := int32(len(d.syncVars))
	d.syncVars = append(d.syncVars, v)
	if v.Size > 0 {
		for w := v.Addr / pmem.WordSize; w <= (v.Addr+v.Size-1)/pmem.WordSize; w++ {
			a := w * pmem.WordSize
			if _, taken := d.syncWords[a]; !taken {
				d.syncWords[a] = i
				continue
			}
			if d.syncMore == nil {
				d.syncMore = make(map[pmem.Addr][]int32)
			}
			d.syncMore[a] = append(d.syncMore[a], i)
		}
	}
	d.hasSync.Store(true)
}

// HasSyncVars cheaply reports whether any annotation is registered.
func (d *Detector) HasSyncVars() bool {
	return d.hasSync.Load()
}

// SyncVars returns the registered annotations.
func (d *Detector) SyncVars() []SyncVar {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SyncVar(nil), d.syncVars...)
}

// OnDirtyRead records an inconsistency candidate: thread ev.Reader read the
// word at ev.Addr while it was dirty from a store by ev.Writer at
// ev.WriteSite. It returns a taint label for the loaded value so the runtime
// can propagate the dependency.
func (d *Detector) OnDirtyRead(ev taint.Event) taint.Label {
	d.mu.Lock()
	key := [2]uint32{ev.WriteSite, ev.ReadSite}
	if c, ok := d.candidates[key]; ok {
		c.Count++
	} else {
		d.candidates[key] = &Candidate{Event: ev, Count: 1}
		d.candList = append(d.candList, key)
	}
	d.mu.Unlock()
	return d.labels.NewLeaf(ev)
}

// StoreCheck is the input to OnStore: one instrumented PM store with the
// taint labels of its value and of its target address computation.
type StoreCheck struct {
	Thread  pmem.ThreadID
	Site    site.ID
	Addr    pmem.Addr
	Size    uint64
	ValLab  taint.Label
	AddrLab taint.Label
	// External marks a non-PM durable effect (see Inconsistency.External).
	External bool
	// Stack returns the call stack at the store. OnStore calls it at most
	// once, and only for a store that records a new inconsistency: most
	// tainted stores repeat a known finding, and a symbolized stack costs
	// far more than the check itself.
	Stack func() []string
	// Known, when set, reports whether a finding key is already recorded
	// beyond this detector (the campaign's dedup database). OnStore then
	// records the finding without calling Stack: nothing reads the stack
	// of a duplicate. It is called under the detector's lock.
	Known func(key [3]uint32) bool
	// WordState returns the persistency state of a lineage event's word.
	// An event is live while its word has stayed non-persisted since the
	// observed store: the word is dirty and the event's epoch is past its
	// CleanEpoch (overwrites keep the observed value lost on crash; only
	// a flush settles it). OnStore calls it once per run of lineage
	// events on one word, under the detector's lock once an earlier event
	// has reached the findings; the runtime passes the pool's WordState,
	// so the lock order is detector, then pool. Nil treats every event
	// as live.
	WordState func(addr pmem.Addr) pmem.WordMeta
}

// OnStore checks a PM store for durable side effects based on non-persisted
// data. For every taint event reachable from the value or address label, if
// the originating word is still dirty at the recorded epoch, an inter- or
// intra-thread inconsistency is recorded. Events whose dirty word lies
// inside the stored range itself are skipped: overwriting the dependent
// non-persisted data is not a side effect (Definition 2). It returns the
// newly recorded inconsistencies (empty when all were duplicates or stale).
//
// A lineage can run to hundreds of events, mostly in runs on one word and
// one finding key, so the store takes the detector's lock at most once, and
// an event on the word or key of the last one looked up reuses that lookup.
func (d *Detector) OnStore(sc StoreCheck) []*Inconsistency {
	var (
		found    []*Inconsistency
		stack    storeStack
		word     pmem.Addr // the last word looked up, and its state
		state    pmem.WordMeta
		haveWord bool
		prev     *Inconsistency // the last finding looked up
		locked   bool
	)
	for _, pair := range [2]struct {
		lab  taint.Label
		flow FlowKind
	}{{sc.ValLab, FlowValue}, {sc.AddrLab, FlowAddress}} {
		if pair.lab == taint.None {
			continue
		}
		lineage := d.labels.Events(pair.lab)
		for _, ev := range lineage {
			// Skip self-overwrite of the dependent data (external
			// effects overwrite nothing).
			if !sc.External && ev.Addr >= sc.Addr&^7 && ev.Addr < sc.Addr+sc.Size {
				continue
			}
			if sc.WordState != nil {
				if !haveWord || word != ev.Addr {
					word, state, haveWord = ev.Addr, sc.WordState(ev.Addr), true
				}
				if !state.Dirty || ev.Epoch <= state.CleanEpoch {
					continue
				}
			}
			kind := KindIntra
			if ev.Inter() {
				kind = KindInter
			}
			// Most tainted stores reach no finding (their words are
			// settled), so the lock is taken at the first event that does.
			if !locked {
				d.mu.Lock()
				locked = true
				d.stores++
			}
			if prev != nil && prev.Event.WriteSite == ev.WriteSite && prev.Kind == kind {
				continue // the same key (the store site is the same), counted
			}
			key := inconKey(ev.WriteSite, sc.Site, kind)
			if p, ok := d.incons[key]; ok {
				if p.store != d.stores {
					p.Count++
					p.store = d.stores
				}
				prev = p
				continue
			}
			prev = d.newFinding(&sc, &stack, key, kind, ev, pair.flow, lineage)
			found = append(found, prev)
		}
	}
	if locked {
		d.mu.Unlock()
	}
	return found
}

// storeStack is a store's call stack, captured at most once.
type storeStack struct {
	frames   []string
	captured bool
}

// newFinding records the store's first occurrence of finding key, caused by
// lineage event ev. Caller holds d.mu.
func (d *Detector) newFinding(sc *StoreCheck, stack *storeStack, key [3]uint32, kind Kind, ev taint.Event, flow FlowKind, lineage []taint.Event) *Inconsistency {
	// The stack is captured once per store, before the entry becomes
	// visible to readers of d.incons, unless the campaign already holds
	// the finding.
	if !stack.captured && sc.Stack != nil && (sc.Known == nil || !sc.Known(key)) {
		stack.frames, stack.captured = sc.Stack(), true
	}
	in := &Inconsistency{
		Kind:        kind,
		Event:       ev,
		StoreSite:   sc.Site,
		StoreThread: sc.Thread,
		External:    sc.External,
		SideEffect:  pmem.Range{Off: sc.Addr, Len: sc.Size},
		DirtyRange:  pmem.Range{Off: ev.Addr, Len: pmem.WordSize},
		Flow:        flow,
		Stack:       stack.frames,
		Lineage:     lineage,
		Count:       1,
		store:       d.stores,
	}
	d.incons[key] = in
	d.inconOrd = append(d.inconOrd, key)
	return in
}

// OnSyncStore checks whether a store touches an annotated synchronization
// variable and records a PM Synchronization Inconsistency if so. Only value
// changes count (the checker watches "the changes of user-annotated
// synchronization variables", §4.1); each (variable, site) pair is recorded
// once. It returns the inconsistency when newly recorded.
func (d *Detector) OnSyncStore(t pmem.ThreadID, s site.ID, addr pmem.Addr, size uint64, oldVal, newVal uint64, stack []string) *SyncInconsistency {
	if oldVal == newVal {
		return nil
	}
	last := addr
	if size > 0 {
		last = addr + size - 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// The first registered variable the store overlaps wins; each word's
	// annotations are in registration order, so its first overlap is its
	// best.
	first := int32(-1)
	overlaps := func(i int32) bool {
		v := &d.syncVars[i]
		return addr+size > v.Addr && addr < v.Addr+v.Size
	}
	for w := addr / pmem.WordSize; w <= last/pmem.WordSize; w++ {
		a := w * pmem.WordSize
		i, ok := d.syncWords[a]
		if !ok || (first >= 0 && i >= first) {
			continue
		}
		if overlaps(i) {
			first = i
			continue
		}
		for _, i := range d.syncMore[a] {
			if first >= 0 && i >= first {
				break
			}
			if overlaps(i) {
				first = i
				break
			}
		}
	}
	if first < 0 {
		return nil
	}
	v := d.syncVars[first]
	key := syncKey{v.Name, s}
	if prev, ok := d.syncSeen[key]; ok {
		prev.Count++
		return nil
	}
	si := &SyncInconsistency{
		Var:    v,
		Addr:   v.Addr,
		Site:   s,
		Thread: t,
		OldVal: oldVal,
		NewVal: newVal,
		Stack:  stack,
		Count:  1,
	}
	d.syncSeen[key] = si
	d.syncOrd = append(d.syncOrd, si)
	return si
}

// Candidates returns all recorded candidates in detection order.
func (d *Detector) Candidates() []*Candidate {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Candidate, 0, len(d.candList))
	for _, k := range d.candList {
		out = append(out, d.candidates[k])
	}
	return out
}

// Inconsistencies returns all recorded inter-/intra-thread inconsistencies in
// detection order.
func (d *Detector) Inconsistencies() []*Inconsistency {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Inconsistency, 0, len(d.inconOrd))
	for _, k := range d.inconOrd {
		out = append(out, d.incons[k])
	}
	return out
}

// SyncInconsistencies returns all recorded synchronization inconsistencies in
// detection order.
func (d *Detector) SyncInconsistencies() []*SyncInconsistency {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*SyncInconsistency, len(d.syncOrd))
	copy(out, d.syncOrd)
	return out
}

// CandidateCounts returns the numbers of inter- and intra-thread candidates.
func (d *Detector) CandidateCounts() (inter, intra int) {
	for _, c := range d.Candidates() {
		if c.Inter() {
			inter++
		} else {
			intra++
		}
	}
	return inter, intra
}
