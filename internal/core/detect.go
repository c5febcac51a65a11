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
	// Trace is the tail of the PM access trace at detection time — the
	// interleaving evidence attached to the report.
	Trace []string
	// Input is the encoded program input (operation sequence) of the
	// campaign that found the inconsistency (§4.1 step 6: reports carry
	// "corresponding program inputs").
	Input string
	Count int
}

// Key returns the dedup key: inconsistencies with the same dirty write site
// and side-effect site are one report.
func (in *Inconsistency) Key() [3]uint32 {
	k := uint32(0)
	if in.Kind == KindIntra {
		k = 1
	}
	return [3]uint32{in.Event.WriteSite, uint32(in.StoreSite), k}
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

// DedupKey returns the (variable, site) key the result database dedups by.
func (si *SyncInconsistency) DedupKey() string {
	return fmt.Sprintf("%s@%d", si.Var.Name, si.Site)
}

// syncKey is the (variable name, update site) pair sync inconsistencies are
// deduplicated by.
type syncKey struct {
	name string
	site site.ID
}

// Detector implements the runtime PM checkers for one fuzz campaign.
type Detector struct {
	mu     sync.Mutex
	labels *taint.Table

	syncVars []SyncVar
	// syncWords maps each word an annotation overlaps to the indices, in
	// registration order, of the annotations overlapping it, so a store
	// looks up only the variables on its own words.
	syncWords map[pmem.Addr][]int
	// hasSync mirrors len(syncVars) > 0; the store hook polls it on every
	// store, so it is atomic instead of taking mu.
	hasSync atomic.Bool

	candidates map[[2]uint32]*Candidate // (writeSite, readSite)
	candList   [][2]uint32

	incons   map[[3]uint32]*Inconsistency
	inconOrd [][3]uint32

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
		syncWords:  make(map[pmem.Addr][]int),
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
	i := len(d.syncVars)
	d.syncVars = append(d.syncVars, v)
	if v.Size > 0 {
		for w := v.Addr / pmem.WordSize; w <= (v.Addr+v.Size-1)/pmem.WordSize; w++ {
			d.syncWords[w*pmem.WordSize] = append(d.syncWords[w*pmem.WordSize], i)
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
	External   bool
	Stack      []string
	StillDirty func(addr pmem.Addr, epoch uint32) bool
}

// OnStore checks a PM store for durable side effects based on non-persisted
// data. For every taint event reachable from the value or address label, if
// the originating word is still dirty at the recorded epoch, an inter- or
// intra-thread inconsistency is recorded. Events whose dirty word lies
// inside the stored range itself are skipped: overwriting the dependent
// non-persisted data is not a side effect (Definition 2). It returns the
// newly recorded inconsistencies (empty when all were duplicates or stale).
func (d *Detector) OnStore(sc StoreCheck) []*Inconsistency {
	var found []*Inconsistency
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
			if sc.StillDirty != nil && !sc.StillDirty(ev.Addr, ev.Epoch) {
				continue
			}
			kind := KindIntra
			if ev.Inter() {
				kind = KindInter
			}
			in := &Inconsistency{
				Kind:        kind,
				Event:       ev,
				StoreSite:   sc.Site,
				StoreThread: sc.Thread,
				External:    sc.External,
				SideEffect:  pmem.Range{Off: sc.Addr, Len: sc.Size},
				DirtyRange:  pmem.Range{Off: ev.Addr, Len: pmem.WordSize},
				Flow:        pair.flow,
				Stack:       sc.Stack,
				Lineage:     lineage,
				Count:       1,
			}
			d.mu.Lock()
			if prev, ok := d.incons[in.Key()]; ok {
				prev.Count++
				d.mu.Unlock()
				continue
			}
			d.incons[in.Key()] = in
			d.inconOrd = append(d.inconOrd, in.Key())
			d.mu.Unlock()
			found = append(found, in)
		}
	}
	return found
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
	// list is in registration order, so its first overlap is its best.
	first := -1
	for w := addr / pmem.WordSize; w <= last/pmem.WordSize; w++ {
		for _, i := range d.syncWords[w*pmem.WordSize] {
			if first >= 0 && i >= first {
				break
			}
			v := &d.syncVars[i]
			if addr+size <= v.Addr || addr >= v.Addr+v.Size {
				continue
			}
			first = i
			break
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
