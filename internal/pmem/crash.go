package pmem

import (
	"fmt"
	"sort"
	"sync"
)

// imageBufs recycles crash-image byte slices. Every detected inconsistency
// duplicates the whole pool (paper §4.4); on busy campaigns that is the
// dominant allocation, so consumers hand exhausted images back through
// RecycleImage instead of leaving them to the garbage collector.
var imageBufs sync.Pool

// getImageBuf returns a zero-copy-reusable buffer of length n, either
// recycled or freshly allocated. Callers overwrite the full length.
func getImageBuf(n uint64) []byte {
	if v := imageBufs.Get(); v != nil {
		if b := v.([]byte); uint64(cap(b)) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// RecycleImage returns a crash image obtained from CrashImage or
// CrashImageWith to the buffer pool. The caller must not use the slice
// afterwards.
func RecycleImage(img []byte) {
	if cap(img) == 0 {
		return
	}
	imageBufs.Put(img[:cap(img)])
}

// CrashImage returns a copy of the persisted image: the bytes that survive a
// power failure at this instant. Everything still sitting in the volatile
// cache overlay is lost, exactly as under the ADR failure model assumed by
// the paper (§3.1).
func (p *Pool) CrashImage() []byte {
	img := getImageBuf(p.size)
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
	img := getImageBuf(p.size)
	p.mu.Lock()
	defer p.mu.Unlock()
	copy(img, p.persisted)
	for _, r := range extra {
		if r.Len == 0 {
			continue
		}
		if r.Off >= p.size || r.End() < r.Off {
			panic(fmt.Sprintf("pmem: crash-image range [%#x,%#x) entirely outside pool of size %#x",
				r.Off, r.End(), p.size))
		}
		end := r.End()
		if end > p.size {
			end = p.size
		}
		copy(img[r.Off:end], p.cache[r.Off:end])
	}
	return img
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

// CrashState is one plausible post-crash pool image for a finding.
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
	// Img is the crash image; recyclable through RecycleImage.
	Img []byte
}

// AdversarialState wraps a single §4.4 adversarial image (from
// CrashImageWith) as a one-entry state list — the single-image validation
// the paper describes, and what callers that manage their own images use.
func AdversarialState(img []byte) []CrashState {
	return []CrashState{{Name: StateSideEffect, HasSideEffect: true, Img: img}}
}

// RecycleStates hands every state image back to the buffer pool. The caller
// must not use the states afterwards.
func RecycleStates(states []CrashState) {
	for i := range states {
		RecycleImage(states[i].Img)
		states[i].Img = nil
	}
}

// CrashStates enumerates up to max plausible crash states for a finding
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
// so a finding validates identically across runs. max <= 1 returns exactly
// the adversarial image, reproducing single-image validation.
func (p *Pool) CrashStates(extra []Range, max int) []CrashState {
	adv := p.CrashImageWith(extra)
	states := []CrashState{{Name: StateSideEffect, HasSideEffect: true, Img: adv}}
	if max <= 1 {
		return states
	}
	states = append(states, CrashState{Name: StateBaseline, Img: p.CrashImage()})
	if len(states) >= max {
		return states
	}

	lineData := p.stagedLines()
	lines := make([]Addr, 0, len(lineData))
	for l := range lineData {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		if len(states) >= max {
			break
		}
		img := getImageBuf(p.size)
		copy(img, adv)
		data := lineData[l]
		copy(img[l:l+LineSize], data[:])
		states = append(states, CrashState{
			Name:          fmt.Sprintf("pending-line@%#x", l),
			HasSideEffect: true,
			Img:           img,
		})
	}
	return states
}

// stagedLines returns the flush-time data of every flushed-but-unfenced line,
// keeping the latest view per line across threads. Thread order is sorted so
// map iteration cannot perturb which view wins. A captured entry contributes
// its materialized flush-time data; an uncaptured entry's flush-time data is
// the line's current contents (pendingLine invariant).
func (p *Pool) stagedLines() map[Addr][LineSize]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	size      uint64
	cache     []byte
	persisted []byte
	meta      []WordMeta
	eadr      bool
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
		size:      p.size,
		cache:     append([]byte(nil), p.cache...),
		persisted: append([]byte(nil), p.persisted...),
		meta:      append([]WordMeta(nil), p.meta...),
		eadr:      p.eadr,
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

// NewFromSnapshot creates an independent pool initialized from a snapshot,
// preserving the source pool's platform options (eADR).
func NewFromSnapshot(s *Snapshot) *Pool {
	p := NewWithOptions(s.size, Options{EADR: s.eadr})
	p.Restore(s)
	return p
}
