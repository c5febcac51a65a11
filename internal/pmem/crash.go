package pmem

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// CrashImage returns a copy of the persisted image: the bytes that survive a
// power failure at this instant. Everything still sitting in the volatile
// cache overlay is lost, exactly as under the ADR failure model assumed by
// the paper (§3.1). It copies the whole pool; campaigns capture crash states
// instead (CrashStates, PersistedState), which hold only the lines that
// differ from the pool's base image.
func (p *Pool) CrashImage() []byte {
	img := make([]byte, p.size)
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(img, p.persisted)
	return img
}

// CrashImageWith returns a crash image in which the given ranges are taken
// from the cache image instead of the persisted image. PMRace uses it to
// construct the adversarial crash point for a detected inconsistency: the
// durable side effect has reached PM (its flush completed) while the
// non-persisted data it depends on has not (paper Figure 3).
//
// A range that partially overlaps the pool is clamped to the pool's end; a
// range that lies entirely outside it (or whose length overflows) panics —
// silently dropping it would validate the finding against an image missing
// its own side effect, turning a real bug into a falsely-clean recovery run.
func (p *Pool) CrashImageWith(extra []Range) []byte {
	img := make([]byte, p.size)
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(img, p.persisted)
	for _, r := range p.clampRanges(extra) {
		copy(img[r.Off:r.End()], p.cache[r.Off:r.End()])
	}
	return img
}

// clampRanges returns the non-empty ranges of extra clamped to the pool's
// end, panicking on a range entirely outside the pool (see CrashImageWith).
func (p *Pool) clampRanges(extra []Range) []Range {
	out := make([]Range, 0, len(extra))
	for _, r := range extra {
		if r.Len == 0 {
			continue
		}
		if r.Off >= p.size || r.End() < r.Off {
			panic(fmt.Sprintf("pmem: crash-image range [%#x,%#x) entirely outside pool of size %#x",
				r.Off, r.End(), p.size))
		}
		r.Len = min(r.End(), p.size) - r.Off
		out = append(out, r)
	}
	return out
}

// Names of the fixed enumerated crash states; per-pending-line states are
// named "pending-line@<offset>".
const (
	// StateSideEffect is the paper's §4.4 adversarial image: the durable
	// side effect is force-persisted, the dependent dirty data is lost.
	StateSideEffect = "side-effect-persisted"
	// StateBaseline is the plain persisted image: what an ADR crash with
	// no adversarial timing preserves.
	StateBaseline = "persisted-baseline"
)

// Base image ids. A crash state overlays a base image: the persisted image
// of the snapshot its pool was restored from, or the zero image. Recovery
// pools remember the id of the base their bytes hold, never the snapshot
// itself, so a released pool pins no finished campaign's snapshot.
const (
	// noBase marks a pool whose bytes came from FromImage: no base to
	// reset against, so its next reset copies a whole image.
	noBase uint64 = 0
	// zeroBase is the zero image, the base of a pool never restored from
	// a snapshot.
	zeroBase uint64 = 1
)

// snapIDs numbers snapshots; ids start above zeroBase.
var snapIDs atomic.Uint64

// baseID returns the id of a state's base image.
func baseID(s *Snapshot) uint64 {
	if s == nil {
		return zeroBase
	}
	return s.id
}

// zeroLine is the zero image's content of every line.
var zeroLine [LineSize]byte

// CrashState is one plausible post-crash pool image for a finding, held as
// an overlay on a base image: the sorted cache lines whose durable bytes
// differ from the base. A state captured on a pool restored from a snapshot
// overlays that snapshot's persisted image; one captured on a pool never
// restored overlays the zero image. Either way it costs one line per line
// the execution changed, not a copy of the pool.
type CrashState struct {
	// Name identifies how the state was constructed (StateSideEffect,
	// StateBaseline, or "pending-line@<offset>").
	Name string
	// HasSideEffect reports that the finding's durable side effect is
	// persisted in this image. The §4.4 overwrite oracle only applies to
	// such states: in the baseline the side effect never reached PM, so
	// recovery has nothing to overwrite and only a hang or error there is
	// evidence of a bug.
	HasSideEffect bool

	base  *Snapshot // nil: the zero image
	size  uint64
	lines []stateLine // ascending by offset
}

// stateLine is one overlay line: its offset and durable bytes.
type stateLine struct {
	off  Addr
	data [LineSize]byte
}

// baseLine returns the base image's bytes of the line at off.
func (s *CrashState) baseLine(off Addr) []byte {
	if s.base == nil {
		return zeroLine[:]
	}
	return s.base.persisted[off : off+LineSize]
}

// add appends the line at off, which must lie above every line already
// added, unless its bytes equal the base's.
func (s *CrashState) add(off Addr, data []byte) {
	if bytes.Equal(data, s.baseLine(off)) {
		return
	}
	s.lines = append(s.lines, stateLine{off: off, data: [LineSize]byte(data)})
}

// Image materialises the state as a full crash image: the base image with
// the overlay lines applied.
func (s *CrashState) Image() []byte {
	img := make([]byte, s.size)
	if s.base != nil {
		copy(img, s.base.persisted)
	}
	for i := range s.lines {
		copy(img[s.lines[i].off:], s.lines[i].data[:])
	}
	return img
}

// ImageState wraps a full crash image as a state on the zero image: its
// overlay is every line holding a non-zero byte. It serves callers that
// build their own images; a pool recovering from the state (FromState)
// holds exactly img, zero-padded to a whole line.
func ImageState(name string, hasSideEffect bool, img []byte) CrashState {
	s := CrashState{Name: name, HasSideEffect: hasSideEffect, size: roundSize(uint64(len(img)))}
	var line [LineSize]byte
	for off := Addr(0); off < s.size; off += LineSize {
		n := 0
		if off < Addr(len(img)) {
			n = copy(line[:], img[off:])
		}
		clear(line[n:])
		s.add(off, line[:])
	}
	return s
}

// AdversarialState wraps a single §4.4 adversarial image (from
// CrashImageWith) as a one-entry state list — the single-image validation
// the paper describes, and what callers that manage their own images use.
func AdversarialState(img []byte) []CrashState {
	return []CrashState{ImageState(StateSideEffect, true, img)}
}

// RecycleStates drops the states' overlays. States share no buffers, so
// this only lets the garbage collector reclaim their lines early. The caller
// must not use the states afterwards.
func RecycleStates(states []CrashState) {
	for i := range states {
		states[i].lines = nil
	}
}

// crashBase returns the base image the pool's crash states overlay, and
// whether the touched lines cover every line whose durable bytes may differ
// from it. A pool from FromImage or FromState has no base it can name by
// pointer; its states overlay the zero image and every line is a candidate.
// The caller holds mu.
func (p *Pool) crashBase() (base *Snapshot, touchedOnly bool) {
	if p.baseSnap != nil {
		return p.baseSnap, true
	}
	return nil, p.imageID == zeroBase
}

// candidateLines returns, ascending, every line whose durable bytes in a
// state over the extra ranges may differ from the base: the touched lines
// and the lines the ranges cover, or every line when touchedOnly is false.
// The caller holds mu.
func (p *Pool) candidateLines(extra []Range, touchedOnly bool) []Addr {
	var lines []Addr
	if !touchedOnly {
		for off := Addr(0); off < p.size; off += LineSize {
			lines = append(lines, off)
		}
		return lines
	}
	p.eachTouchedLine(func(line Addr) { lines = append(lines, line) })
	for _, r := range extra {
		for line := lineOf(r.Off); line < r.End(); line += LineSize {
			if i, found := slices.BinarySearch(lines, line); !found {
				lines = slices.Insert(lines, i, line)
			}
		}
	}
	return lines
}

// PersistedState returns the plain persisted image as a state named
// StateBaseline: what a crash at this instant preserves. Protocol crash
// points capture it.
func (p *Pool) PersistedState() CrashState {
	p.mu.Lock()
	defer p.mu.Unlock()
	base, touchedOnly := p.crashBase()
	s := CrashState{Name: StateBaseline, base: base, size: p.size}
	for _, line := range p.candidateLines(nil, touchedOnly) {
		s.add(line, p.persisted[line:line+LineSize])
	}
	return s
}

// CrashStates enumerates up to limit plausible crash states for a finding
// whose durable side effect covers the extra ranges (WITCHER-style bounded
// crash-state enumeration layered on the paper's single adversarial image):
//
//  1. the §4.4 adversarial image — side effect persisted, dirty data lost;
//  2. the persisted-only baseline;
//  3. one state per flushed-but-unfenced cache line, the adversarial image
//     with that line's staged data additionally applied — a crash after the
//     line left the CPU but before its fence retired.
//
// The enumeration order is deterministic (pending lines sorted by address),
// so a finding validates identically across runs. limit <= 1 returns exactly
// the adversarial image, reproducing single-image validation. Every state is
// captured in one critical section and scans only the candidate lines, so
// its cost follows the execution's touched set, not the pool size. Ranges
// are clamped as CrashImageWith clamps them.
func (p *Pool) CrashStates(extra []Range, limit int) []CrashState {
	p.mu.Lock()
	defer p.mu.Unlock()
	extra = p.clampRanges(extra)
	base, touchedOnly := p.crashBase()
	lines := p.candidateLines(extra, touchedOnly)

	adv := CrashState{Name: StateSideEffect, HasSideEffect: true, base: base, size: p.size}
	var buf [LineSize]byte
	for _, line := range lines {
		copy(buf[:], p.persisted[line:line+LineSize])
		for _, r := range extra {
			from, to := max(r.Off, line), min(r.End(), line+LineSize)
			if from < to {
				copy(buf[from-line:to-line], p.cache[from:to])
			}
		}
		adv.add(line, buf[:])
	}
	states := []CrashState{adv}
	if limit <= 1 {
		return states
	}
	baseline := CrashState{Name: StateBaseline, base: base, size: p.size}
	for _, line := range lines {
		baseline.add(line, p.persisted[line:line+LineSize])
	}
	states = append(states, baseline)
	if len(states) >= limit {
		return states
	}

	staged := p.stagedLines()
	pending := make([]Addr, 0, len(staged))
	for l := range staged {
		pending = append(pending, l)
	}
	slices.Sort(pending)
	for _, l := range pending {
		if len(states) >= limit {
			break
		}
		// The adversarial overlay with line l replaced by its staged data.
		st := CrashState{
			Name:          fmt.Sprintf("pending-line@%#x", l),
			HasSideEffect: true,
			base:          base,
			size:          p.size,
			lines:         make([]stateLine, 0, len(adv.lines)+1),
		}
		i := sort.Search(len(adv.lines), func(i int) bool { return adv.lines[i].off >= l })
		st.lines = append(st.lines, adv.lines[:i]...)
		data := staged[l]
		st.add(l, data[:])
		if i < len(adv.lines) && adv.lines[i].off == l {
			i++
		}
		st.lines = append(st.lines, adv.lines[i:]...)
		states = append(states, st)
	}
	return states
}

// stagedLines returns the flush-time data of every flushed-but-unfenced line,
// keeping the latest view per line across threads. Thread order is sorted so
// map iteration cannot perturb which view wins. A captured entry contributes
// its materialized flush-time data; an uncaptured entry's flush-time data is
// the line's current contents (pendingLine invariant). The caller holds mu.
func (p *Pool) stagedLines() map[Addr][LineSize]byte {
	lineData := make(map[Addr][LineSize]byte, 4)
	tids := make([]ThreadID, 0, len(p.pending))
	for t := range p.pending {
		tids = append(tids, t)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, t := range tids {
		for _, s := range p.pending[t] {
			if s.cap != nil {
				lineData[s.line] = s.cap.data
			} else {
				lineData[s.line] = [LineSize]byte(p.cache[s.line : s.line+LineSize])
			}
		}
	}
	return lineData
}

// Snapshot is a deep copy of a pool's full state, used to implement the
// in-memory checkpoints that replace AFL++'s fork server (paper §5): a fuzz
// campaign restores the snapshot taken right after pool initialization
// instead of re-initializing the pool.
type Snapshot struct {
	id        uint64 // names the snapshot as a crash-state base
	size      uint64
	cache     []byte
	persisted []byte
	meta      []WordMeta
	eadr      bool
	// dirty lists the dirty words' offsets in address order: the ones a
	// restored pool carries on lines it has not touched (DirtyWords).
	dirty []Addr
}

// Snapshot captures the pool's current cache image, persisted image and
// per-word metadata. Pending (flushed but unfenced) lines are not captured;
// checkpoints are taken at quiescent points where no flush is in flight.
// Shadow taint labels are not captured either: a label names an event of the
// taint table that wrote it, and no snapshot outlives that table's
// execution, so a restored pool starts untainted.
func (p *Pool) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		id:        snapIDs.Add(1) + zeroBase,
		size:      p.size,
		cache:     append([]byte(nil), p.cache...),
		persisted: append([]byte(nil), p.persisted...),
		meta:      append([]WordMeta(nil), p.meta...),
		eadr:      p.eadr,
	}
	for w := range s.meta {
		if s.meta[w].Dirty {
			s.dirty = append(s.dirty, Addr(w)*WordSize)
		}
	}
	return s
}

// Restore resets the pool to a previously captured snapshot. The last-access
// records, shadow labels and pending flush sets are cleared: the restored
// pool behaves like a freshly checkpointed process.
//
// When the pool's state is already based on the same snapshot (it was
// created by NewFromSnapshot or previously restored to it), only the cache
// lines touched since then are copied back, so the cost of the fork-server
// substitute is proportional to one execution's dirty set rather than the
// pool size.
func (p *Pool) Restore(s *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.size != p.size {
		panic("pmem: snapshot size mismatch")
	}
	if p.baseSnap == s {
		p.restoreTouched(s)
	} else {
		copy(p.cache, s.cache)
		copy(p.persisted, s.persisted)
		copy(p.meta, s.meta)
		clear(p.shadow)
		clear(p.last)
		clear(p.touched)
	}
	// Reuse the pending map and its per-thread slices: a fuzz campaign
	// restores once per execution, and rebuilding the map here was the last
	// per-restore allocation on the hot path.
	p.clearPending()
	p.baseSnap = s
	p.imageID = noBase // untouched lines hold the snapshot's metadata
}

// restoreTouched copies back only the lines recorded in the touched bitmap.
// The caller holds mu.
func (p *Pool) restoreTouched(s *Snapshot) {
	p.eachTouchedLine(func(line Addr) {
		end := line + LineSize
		copy(p.cache[line:end], s.cache[line:end])
		copy(p.persisted[line:end], s.persisted[line:end])
		wFirst, wEnd := line/WordSize, end/WordSize
		copy(p.meta[wFirst:wEnd], s.meta[wFirst:wEnd])
		clear(p.shadow[wFirst:wEnd])
		clear(p.last[wFirst:wEnd])
	})
	clear(p.touched)
}

// Base returns the snapshot the pool was last restored to, nil for a pool
// never restored from one.
func (p *Pool) Base() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.baseSnap
}

// NewFromSnapshot creates an independent pool initialized from a snapshot,
// preserving the source pool's platform options (eADR).
func NewFromSnapshot(s *Snapshot) *Pool {
	p := NewWithOptions(s.size, Options{EADR: s.eadr})
	p.Restore(s)
	return p
}
