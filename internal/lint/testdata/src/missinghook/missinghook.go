// Package missinghook seeds violations for the missing-hook analyzer.
package missinghook

import (
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
)

func rawLoad(p *pmem.Pool, addr pmem.Addr) uint64 {
	return p.Load64(addr) // want `raw pmem\.Pool\.Load64 bypasses the rt\.Thread hook API`
}

func rawStore(p *pmem.Pool, id pmem.ThreadID, addr pmem.Addr) {
	p.Store64(id, 0, addr, 1) // want `raw pmem\.Pool\.Store64 bypasses the rt\.Thread hook API`
}

func rawFlush(p *pmem.Pool, id pmem.ThreadID, addr pmem.Addr) {
	p.Flush(id, addr, 8) // want `raw pmem\.Pool\.Flush bypasses the rt\.Thread hook API`
}

func hooked(t *rt.Thread, addr pmem.Addr) uint64 {
	v, _ := t.Load64(addr)
	t.Store64(addr, v+1, taint.None, taint.None)
	t.Persist(addr, 8)
	return v
}

// Metadata queries are not data accesses and stay allowed.
func allowedQuery(p *pmem.Pool, addr pmem.Addr) pmem.WordMeta {
	return p.WordState(addr)
}

type guarded struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	n   int
	rwN int
}

func rawMutex(g *guarded) {
	g.mu.Lock() // want `raw sync\.Mutex\.Lock is a wait the PM-aware scheduler cannot see`
	g.n++
	g.mu.Unlock()
}

func rawTryLock(g *guarded) bool {
	if !g.mu.TryLock() { // want `raw sync\.Mutex\.TryLock is a wait the PM-aware scheduler cannot see`
		return false
	}
	g.mu.Unlock()
	return true
}

func rawRWMutex(g *guarded) int {
	g.rw.RLock() // want `raw sync\.RWMutex\.RLock is a wait the PM-aware scheduler cannot see`
	defer g.rw.RUnlock()
	return g.rwN
}

// Mutexes taken through the runtime are visible to the scheduler.
func routedMutex(t *rt.Thread, g *guarded) {
	t.LockMutex(&g.mu)
	g.n++
	t.UnlockMutex(&g.mu)
}

func ignoredMutex(g *guarded) int {
	g.mu.Lock() //pmvet:ignore missing-hook -- no thread in scope
	defer g.mu.Unlock()
	return g.n
}
