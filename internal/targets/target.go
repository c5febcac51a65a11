package targets

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// Target is one PM system under test. A fresh instance is created per fuzz
// campaign; instances hold only volatile (DRAM) state — everything
// persistent lives in the pool, so Recover can reconstruct the system from a
// crash image alone.
type Target interface {
	// Name returns the registry name.
	Name() string
	// PoolSize returns the pool size the target needs.
	PoolSize() uint64
	// Setup initializes the persistent structures on a fresh pool. It
	// runs single-threaded before the workload (the phase whose cost the
	// in-memory checkpoints amortize).
	Setup(t *rt.Thread) error
	// Exec runs one operation on behalf of a worker thread.
	Exec(t *rt.Thread, op workload.Op) error
	// Recover re-opens the system from a (crash) pool image and runs its
	// recovery procedure, as the post-failure stage does.
	Recover(t *rt.Thread) error
	// Annotations returns how many source-level sync-variable annotation
	// call sites the target carries (the paper's Table 3 "Annotation"
	// column).
	Annotations() int
}

// Factory creates a fresh target instance.
type Factory func() Target

var (
	regMu    sync.Mutex
	registry = map[string]Factory{}
)

// Register adds a target factory under a unique name. It panics on
// duplicates, like database/sql drivers.
func Register(name string, f Factory) {
	regMu.Lock() //pmvet:ignore missing-hook -- target registry, not target code; no thread in scope
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("targets: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Has reports whether a target name is registered, without instantiating.
func Has(name string) bool {
	regMu.Lock() //pmvet:ignore missing-hook -- target registry, not target code; no thread in scope
	defer regMu.Unlock()
	_, ok := registry[name]
	return ok
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, error) {
	regMu.Lock() //pmvet:ignore missing-hook -- target registry, not target code; no thread in scope
	f, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("targets: unknown target %q (have %v)", name, Names())
	}
	return f, nil
}

// New instantiates a registered target.
func New(name string) (Target, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Names lists the registered targets in sorted order.
func Names() []string {
	regMu.Lock() //pmvet:ignore missing-hook -- target registry, not target code; no thread in scope
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Fingerprint packs a string into a uint64 so that keys and values can live
// in fixed 8-byte PM slots. It is FNV-1a; the driver oracle compares
// fingerprints, never inverts them.
func Fingerprint(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// FNV-1a mixes poorly into the high bits for short similar keys, and
	// CCEH-style directories index by the top bits; finish with a
	// murmur3-style avalanche so all 64 bits disperse.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	if h == 0 { // 0 is the "empty slot" sentinel in the targets
		h = 1
	}
	return h
}
