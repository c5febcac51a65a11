package site

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// ID identifies one instrumented instruction (hook call site).
type ID uint32

// Unknown is the zero site, used when a location cannot be resolved.
const Unknown ID = 0

// Info describes a resolved call site.
type Info struct {
	File     string // base file name, e.g. "pclht.go"
	Line     int
	Function string // short function name, e.g. "Resize"
}

// String formats the site like the paper's bug tables: "pclht.go:785".
func (i Info) String() string {
	if i.File == "" {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", i.File, i.Line)
}

// Registry maps program counters to stable site IDs. The zero value is not
// usable; create registries with NewRegistry. A process-wide registry is
// exposed through the package-level functions so that site IDs remain stable
// across fuzz campaigns within one run.
//
// The steady-state read path is lock-free: lookups load an atomic pointer to
// an immutable PC→ID map (and an immutable Info slice), so hook calls from
// concurrent fuzzing workers never serialize on the registry once their call
// sites are known. Registration of a new site copies the map under mu and
// publishes the copy (copy-on-write); sites are registered once per call site
// per process, so the write path is cold.
type Registry struct {
	mu    sync.Mutex                     // serializes writers (copy-on-write)
	byPC  atomic.Pointer[map[uintptr]ID] // immutable published map
	byKey map[string]ID                  // slow path only, guarded by mu
	infos atomic.Pointer[[]Info]         // immutable published slice; index = ID
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{byKey: make(map[string]ID)}
	pcs := make(map[uintptr]ID)
	infos := make([]Info, 1) // 0 reserved for Unknown
	r.byPC.Store(&pcs)
	r.infos.Store(&infos)
	return r
}

var global = NewRegistry()

// Here resolves the caller's caller (adjusted by skip) to a site ID using the
// global registry. skip follows runtime.Callers conventions relative to the
// caller of Here: skip 0 identifies the direct caller of the function calling
// Here.
func Here(skip int) ID { return global.Here(skip + 2) }

// Lookup returns the Info recorded for a global-registry site ID.
func Lookup(id ID) Info { return global.Lookup(id) }

// ResolvePC returns the global-registry ID for a raw return PC (from
// runtime.Callers or ReturnPC); both capture paths produce the same PC for a
// given call site, so they share one registry entry.
func ResolvePC(pc uintptr) ID { return global.ResolvePC(pc) }

// Named returns a stable global-registry ID for a symbolic location, used by
// tests and synthetic workloads that have no meaningful program counter.
func Named(name string) ID { return global.Named(name) }

// Here resolves the caller at the given skip depth to a stable ID.
func (r *Registry) Here(skip int) ID {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) == 0 {
		return Unknown
	}
	return r.ResolvePC(pcs[0])
}

// ResolvePC returns the stable ID for a program counter captured with
// runtime.Callers, registering it on first sight. The hit path is lock-free.
func (r *Registry) ResolvePC(pc uintptr) ID {
	if id, ok := (*r.byPC.Load())[pc]; ok {
		return id
	}
	return r.registerPC(pc)
}

// registerPC is the cold path of ResolvePC: symbolize the PC and publish a
// new immutable map that includes it.
func (r *Registry) registerPC(pc uintptr) ID {
	// Resolve outside the lock: CallersFrames may be slow.
	frames := runtime.CallersFrames([]uintptr{pc})
	frame, _ := frames.Next()
	info := Info{
		File:     filepath.Base(frame.File),
		Line:     frame.Line,
		Function: shortFunc(frame.Function),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := (*r.byPC.Load())[pc]; ok {
		return id
	}
	// Two distinct PCs can resolve to the same file:line (inlining);
	// reuse the existing ID so coverage and dedup stay stable.
	key := fmt.Sprintf("%s:%d", frame.File, frame.Line)
	id, known := r.byKey[key]
	if !known {
		id = r.appendInfoLocked(info)
		r.byKey[key] = id
	}
	r.publishPCLocked(pc, id)
	return id
}

// publishPCLocked copies the current PC map, adds pc→id and publishes the
// copy. Callers hold mu.
func (r *Registry) publishPCLocked(pc uintptr, id ID) {
	old := *r.byPC.Load()
	next := make(map[uintptr]ID, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[pc] = id
	r.byPC.Store(&next)
}

// appendInfoLocked publishes a new immutable Info slice with info appended
// and returns its ID. Callers hold mu.
func (r *Registry) appendInfoLocked(info Info) ID {
	old := *r.infos.Load()
	next := make([]Info, len(old)+1)
	copy(next, old)
	next[len(old)] = info
	r.infos.Store(&next)
	return ID(len(old))
}

// Named returns a stable ID for a symbolic name.
func (r *Registry) Named(name string) ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byKey[name]; ok {
		return id
	}
	id := r.appendInfoLocked(Info{File: name, Line: 0, Function: name})
	r.byKey[name] = id
	return id
}

// Lookup returns the Info recorded for id, or a zero Info for Unknown or
// out-of-range IDs. Lookup is lock-free.
func (r *Registry) Lookup(id ID) Info {
	infos := *r.infos.Load()
	if id == Unknown || int(id) >= len(infos) {
		return Info{}
	}
	return infos[id]
}

// Count returns the number of registered sites.
func (r *Registry) Count() int {
	return len(*r.infos.Load()) - 1
}

// returnPCProbe compares the two caller-PC capture mechanisms from one frame:
// the frame-pointer walk of ReturnPC and the runtime.Callers unwind (skip 2 =
// the caller of this function, the same frame ReturnPC reports). It must not
// be inlined — ReturnPC needs a real stack frame to walk out of.
//
//go:noinline
func returnPCProbe() (fp, unwind uintptr) {
	var pcs [1]uintptr
	if runtime.Callers(2, pcs[:]) == 0 {
		return 0, 1
	}
	return ReturnPC(), pcs[0]
}

// VerifyReturnPC reports whether the frame-pointer caller-PC fast path works
// in this build: ReturnPC must agree exactly with runtime.Callers. It returns
// false on architectures without the assembly implementation and on any build
// whose frame layout the walk does not match, in which case callers must keep
// using runtime.Callers.
func VerifyReturnPC() bool {
	fp, unwind := returnPCProbe()
	return fp != 0 && fp == unwind
}

func shortFunc(fn string) string {
	for i := len(fn) - 1; i >= 0; i-- {
		if fn[i] == '/' {
			return fn[i+1:]
		}
	}
	return fn
}
