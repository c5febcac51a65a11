package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/site"
)

// Status is the post-failure verdict on a detected inconsistency (§4.4).
type Status int

const (
	// StatusPending: not yet validated.
	StatusPending Status = iota
	// StatusBug: survived post-failure validation; reported as a bug.
	StatusBug
	// StatusValidatedFP: the recovery code overwrote the durable side
	// effect (or re-initialized the sync variable), so the inconsistency
	// is benign.
	StatusValidatedFP
	// StatusWhitelistedFP: the detection stack matched a whitelist entry
	// (e.g. transactional allocation protected by redo logging).
	StatusWhitelistedFP
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusBug:
		return "bug"
	case StatusValidatedFP:
		return "validated-fp"
	case StatusWhitelistedFP:
		return "whitelisted-fp"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Whitelist lets developers mark benign reads of non-persisted data (§4.4):
// crash-consistent patterns such as redo-logged allocation or checksummed
// regions. An inconsistency whose stack trace or involved sites contain a
// whitelisted location is reported as safe.
type Whitelist struct {
	mu      sync.Mutex
	entries []string
}

// NewWhitelist creates a whitelist with the given entries.
func NewWhitelist(entries ...string) *Whitelist {
	w := &Whitelist{}
	w.Add(entries...)
	return w
}

// Add appends entries; each is a substring matched against stack frames and
// site strings (file:line or function name).
func (w *Whitelist) Add(entries ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries = append(w.entries, entries...)
}

// Entries returns a copy of the whitelist contents.
func (w *Whitelist) Entries() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.entries...)
}

// MatchStack reports whether any stack frame contains a whitelisted entry.
func (w *Whitelist) MatchStack(stack []string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, fr := range stack {
		for _, e := range w.entries {
			if e != "" && strings.Contains(fr, e) {
				return true
			}
		}
	}
	return false
}

// MatchInconsistency reports whether the inconsistency's stack or the
// file:line of its read/write/store sites match the whitelist.
func (w *Whitelist) MatchInconsistency(in *Inconsistency) bool {
	if w.MatchStack(in.Stack) {
		return true
	}
	locs := []string{
		site.Lookup(site.ID(in.Event.WriteSite)).String(),
		site.Lookup(site.ID(in.Event.ReadSite)).String(),
		site.Lookup(in.StoreSite).String(),
		site.Lookup(site.ID(in.Event.WriteSite)).Function,
		site.Lookup(site.ID(in.Event.ReadSite)).Function,
		site.Lookup(in.StoreSite).Function,
	}
	return w.MatchStack(locs)
}

// JudgedInconsistency pairs a detected inconsistency with its post-failure
// verdict.
type JudgedInconsistency struct {
	*Inconsistency
	Status Status
}

// JudgedSync pairs a synchronization inconsistency with its verdict.
type JudgedSync struct {
	*SyncInconsistency
	Status Status
}

// OtherFinding records findings outside the two main patterns: hangs from
// conventional concurrency bugs, redundant PM writes surfaced from candidate
// reports, and similar (Table 2 "Other").
type OtherFinding struct {
	Kind        string // e.g. "hang", "redundant-write"
	Site        site.ID
	Description string
}

// UniqueBug is the paper's unit of counting (§6.2): a group of
// inconsistencies caused by the same non-persisted store instruction, or all
// synchronization inconsistencies of the same variable.
type UniqueBug struct {
	ID        int
	Kind      Kind
	GroupSite site.ID // dirty write site (inter/intra) or sync-update site
	VarName   string  // for sync bugs
	Samples   int
	Summary   string
}

// DB accumulates detection results across fuzz campaigns and computes the
// paper's evaluation aggregates (Tables 2/3/5/6).
type DB struct {
	mu     sync.Mutex
	em     *obs.Emitter
	incons map[[3]uint32]*JudgedInconsistency
	order  [][3]uint32
	syncs  map[syncKey]*JudgedSync
	syncO  []syncKey
	others []OtherFinding
}

// NewDB creates an empty result database.
func NewDB() *DB {
	return &DB{
		incons: make(map[[3]uint32]*JudgedInconsistency),
		syncs:  make(map[syncKey]*JudgedSync),
	}
}

// SetEmitter attaches the observability emitter: new deduplicated findings
// emit InconsistencyFound, and verdicts that land as bugs emit BugConfirmed.
// Call before the campaign starts; a nil emitter (the default) is inert.
func (db *DB) SetEmitter(em *obs.Emitter) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.em = em
}

// MergeInconsistency records an inconsistency found during a campaign,
// deduplicating against earlier campaigns. It returns the judged record (new
// or existing) and whether it was new.
func (db *DB) MergeInconsistency(in *Inconsistency) (*JudgedInconsistency, bool) {
	db.mu.Lock()
	if prev, ok := db.incons[in.Key()]; ok {
		prev.Count += in.Count
		db.mu.Unlock()
		return prev, false
	}
	j := &JudgedInconsistency{Inconsistency: in, Status: StatusPending}
	db.incons[in.Key()] = j
	db.order = append(db.order, in.Key())
	em := db.em
	db.mu.Unlock()
	em.Emit(&obs.InconsistencyFound{
		Class:     in.Class(),
		WriteSite: site.Lookup(site.ID(in.Event.WriteSite)).String(),
		ReadSite:  site.Lookup(site.ID(in.Event.ReadSite)).String(),
		StoreSite: site.Lookup(in.StoreSite).String(),
		Flow:      in.Flow.String(),
	})
	return j, true
}

// HasInconsistency reports whether a finding with the given dedup key is
// already recorded. The fuzzing executor consults it at detection time to
// skip the forensic capture (crash-state enumeration, PM diff, trace) for
// duplicates, whose capture the merge would discard unread.
func (db *DB) HasInconsistency(key [3]uint32) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.incons[key]
	return ok
}

// HasSync is the synchronization-finding analogue of HasInconsistency.
func (db *DB) HasSync(si *SyncInconsistency) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.syncs[si.key()]
	return ok
}

// MergeSync records a synchronization inconsistency, deduplicating by
// variable and site.
func (db *DB) MergeSync(si *SyncInconsistency) (*JudgedSync, bool) {
	db.mu.Lock()
	key := si.key()
	if prev, ok := db.syncs[key]; ok {
		prev.Count += si.Count
		db.mu.Unlock()
		return prev, false
	}
	j := &JudgedSync{SyncInconsistency: si, Status: StatusPending}
	db.syncs[key] = j
	db.syncO = append(db.syncO, key)
	em := db.em
	db.mu.Unlock()
	em.Emit(&obs.InconsistencyFound{
		Class:     si.Class(),
		StoreSite: site.Lookup(si.Site).String(),
		Var:       si.Var.Name,
	})
	return j, true
}

// Judge records the post-failure verdict on an inter-/intra-thread finding,
// emitting BugConfirmed when it survives validation as a bug.
func (db *DB) Judge(j *JudgedInconsistency, st Status) {
	db.mu.Lock()
	j.Status = st
	em := db.em
	db.mu.Unlock()
	if st == StatusBug {
		em.Emit(&obs.BugConfirmed{
			Class:   j.Class(),
			Site:    site.Lookup(j.GroupSite()).String(),
			Summary: j.Summary(),
		})
	}
}

// JudgeSync is the synchronization-variable analogue of Judge.
func (db *DB) JudgeSync(j *JudgedSync, st Status) {
	db.mu.Lock()
	j.Status = st
	em := db.em
	db.mu.Unlock()
	if st == StatusBug {
		em.Emit(&obs.BugConfirmed{
			Class:   j.Class(),
			Site:    site.Lookup(j.GroupSite()).String(),
			Var:     j.Var.Name,
			Summary: j.Summary(),
		})
	}
}

// AddOther records a finding outside the two main patterns, deduplicated by
// kind and site.
func (db *DB) AddOther(f OtherFinding) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, o := range db.others {
		if o.Kind == f.Kind && o.Site == f.Site {
			return false
		}
	}
	db.others = append(db.others, f)
	return true
}

// Inconsistencies returns the judged inconsistencies in insertion order.
func (db *DB) Inconsistencies() []*JudgedInconsistency {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*JudgedInconsistency, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.incons[k])
	}
	return out
}

// Syncs returns the judged synchronization inconsistencies in insertion
// order.
func (db *DB) Syncs() []*JudgedSync {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*JudgedSync, 0, len(db.syncO))
	for _, k := range db.syncO {
		out = append(out, db.syncs[k])
	}
	return out
}

// Others returns the recorded other findings.
func (db *DB) Others() []OtherFinding {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]OtherFinding(nil), db.others...)
}

// Counts aggregates verdicts per kind for the Table 3/6 rows.
type Counts struct {
	InterCandidates int
	IntraCandidates int
	Inter           int
	Intra           int
	InterValidated  int // validated FPs among inter
	InterWhitelist  int
	IntraValidated  int
	IntraWhitelist  int
	Sync            int
	SyncValidated   int
	InterBugs       int // unique bugs
	IntraBugs       int
	SyncBugs        int
	OtherBugs       int
}

// Tally computes the verdict aggregates. Candidate counts must be supplied
// by the caller (they live in per-campaign detectors). The whole aggregation
// holds the lock: verdict fields (Status, Count) are written under it by
// Judge/Merge while the campaign runs, and Tally may be called concurrently
// through live statistics snapshots.
func (db *DB) Tally() Counts {
	db.mu.Lock()
	defer db.mu.Unlock()
	var c Counts
	for _, k := range db.order {
		j := db.incons[k]
		switch j.Kind {
		case KindInter:
			c.Inter++
			switch j.Status {
			case StatusValidatedFP:
				c.InterValidated++
			case StatusWhitelistedFP:
				c.InterWhitelist++
			}
		case KindIntra:
			c.Intra++
			switch j.Status {
			case StatusValidatedFP:
				c.IntraValidated++
			case StatusWhitelistedFP:
				c.IntraWhitelist++
			}
		}
	}
	for _, k := range db.syncO {
		j := db.syncs[k]
		c.Sync++
		if j.Status == StatusValidatedFP || j.Status == StatusWhitelistedFP {
			c.SyncValidated++
		}
	}
	bugs := db.uniqueBugsLocked()
	for _, b := range bugs {
		switch b.Kind {
		case KindInter:
			c.InterBugs++
		case KindIntra:
			c.IntraBugs++
		case KindSync:
			c.SyncBugs++
		}
	}
	c.OtherBugs = len(db.others)
	return c
}

// UniqueBugs groups the surviving (non-FP) inconsistencies by the store
// instruction that produced the non-persisted data, and synchronization
// inconsistencies by variable, producing the paper's unique-bug counts. Safe
// to call while the campaign is still judging findings.
func (db *DB) UniqueBugs() []UniqueBug {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.uniqueBugsLocked()
}

func (db *DB) uniqueBugsLocked() []UniqueBug {
	type group struct {
		kind    Kind
		site    site.ID
		varName string
		samples int
		summary string
	}
	groups := map[string]*group{}
	var order []string
	for _, k := range db.order {
		j := db.incons[k]
		if j.Status == StatusValidatedFP || j.Status == StatusWhitelistedFP {
			continue
		}
		key := fmt.Sprintf("%s/%d", j.Kind, j.Event.WriteSite)
		g, ok := groups[key]
		if !ok {
			g = &group{kind: j.Kind, site: j.GroupSite(), summary: j.Summary()}
			groups[key] = g
			order = append(order, key)
		}
		g.samples += j.Count
	}
	for _, k := range db.syncO {
		j := db.syncs[k]
		if j.Status == StatusValidatedFP || j.Status == StatusWhitelistedFP {
			continue
		}
		key := "sync/" + j.Var.Name
		g, ok := groups[key]
		if !ok {
			g = &group{kind: KindSync, site: j.GroupSite(), varName: j.Var.Name, summary: j.Summary()}
			groups[key] = g
			order = append(order, key)
		}
		g.samples += j.Count
	}
	sort.Strings(order)
	out := make([]UniqueBug, 0, len(order))
	for i, key := range order {
		g := groups[key]
		out = append(out, UniqueBug{
			ID:        i + 1,
			Kind:      g.kind,
			GroupSite: g.site,
			VarName:   g.varName,
			Samples:   g.samples,
			Summary:   g.summary,
		})
	}
	return out
}

// FormatInconsistency renders a detailed bug report in the spirit of the
// paper's "detailed bug reports with stack traces" (§4.1 step 6).
func FormatInconsistency(j *JudgedInconsistency) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s inconsistency (%s flow)\n", j.Status, j.Kind, j.Flow)
	fmt.Fprintf(&b, "  non-persisted write: %s by thread %d\n", site.Lookup(site.ID(j.Event.WriteSite)), j.Event.Writer)
	fmt.Fprintf(&b, "  dirty read:          %s by thread %d (PM offset %#x)\n", site.Lookup(site.ID(j.Event.ReadSite)), j.Event.Reader, j.Event.Addr)
	fmt.Fprintf(&b, "  durable side effect: %s by thread %d (PM offset %#x, %d bytes)\n", site.Lookup(j.StoreSite), j.StoreThread, j.SideEffect.Off, j.SideEffect.Len)
	fmt.Fprintf(&b, "  dynamic occurrences: %d\n", j.Count)
	if len(j.Stack) > 0 {
		b.WriteString("  stack at side effect:\n")
		for _, fr := range j.Stack {
			fmt.Fprintf(&b, "    %s\n", fr)
		}
	}
	if j.Input != "" {
		b.WriteString("  program input:\n")
		for _, line := range strings.Split(strings.TrimSpace(j.Input), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}

// FormatSync renders a synchronization inconsistency report.
func FormatSync(j *JudgedSync) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] Sync inconsistency on %q\n", j.Status, j.Var.Name)
	fmt.Fprintf(&b, "  update: %s by thread %d (%#x -> %#x, expected init %#x)\n",
		site.Lookup(j.Site), j.Thread, j.OldVal, j.NewVal, j.Var.InitVal)
	fmt.Fprintf(&b, "  dynamic occurrences: %d\n", j.Count)
	if len(j.Stack) > 0 {
		b.WriteString("  stack at update:\n")
		for _, fr := range j.Stack {
			fmt.Fprintf(&b, "    %s\n", fr)
		}
	}
	return b.String()
}
