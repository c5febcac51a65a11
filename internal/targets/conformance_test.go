package targets_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/targets/cceh"
	"github.com/pmrace-go/pmrace/internal/targets/clevel"
	"github.com/pmrace-go/pmrace/internal/targets/fastfair"
	"github.com/pmrace-go/pmrace/internal/targets/memcached"
	"github.com/pmrace-go/pmrace/internal/targets/pclht"
	"github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// kv is the uniform adapter the conformance suite drives: every evaluated
// system is, at its interface, a key-value structure.
type kv interface {
	targets.Target
	put(t *rt.Thread, key, val string) error
	get(t *rt.Thread, key string) (uint64, bool)
	del(t *rt.Thread, key string) bool
}

type pclhtKV struct{ *pclht.HT }

func (a pclhtKV) put(t *rt.Thread, k, v string) error       { return a.Put(t, k, v) }
func (a pclhtKV) get(t *rt.Thread, k string) (uint64, bool) { return a.Get(t, k) }
func (a pclhtKV) del(t *rt.Thread, k string) bool           { return a.Delete(t, k) }

type clevelKV struct{ *clevel.HT }

func (a clevelKV) put(t *rt.Thread, k, v string) error       { return a.Put(t, k, v) }
func (a clevelKV) get(t *rt.Thread, k string) (uint64, bool) { return a.Get(t, k) }
func (a clevelKV) del(t *rt.Thread, k string) bool           { return a.Delete(t, k) }

type ccehKV struct{ *cceh.HT }

func (a ccehKV) put(t *rt.Thread, k, v string) error       { return a.Put(t, k, v) }
func (a ccehKV) get(t *rt.Thread, k string) (uint64, bool) { return a.Get(t, k) }
func (a ccehKV) del(t *rt.Thread, k string) bool           { return a.Delete(t, k) }

type fastfairKV struct{ *fastfair.Tree }

func (a fastfairKV) put(t *rt.Thread, k, v string) error       { return a.Insert(t, k, v) }
func (a fastfairKV) get(t *rt.Thread, k string) (uint64, bool) { return a.Get(t, k) }
func (a fastfairKV) del(t *rt.Thread, k string) bool           { return a.Delete(t, k) }

type memcachedKV struct{ *memcached.KV }

func (a memcachedKV) put(t *rt.Thread, k, v string) error { return a.Set(t, k, []byte(v)) }
func (a memcachedKV) get(t *rt.Thread, k string) (uint64, bool) {
	v, ok := a.KV.Get(t, k)
	if !ok {
		return 0, false
	}
	return targets.Fingerprint(string(v)), true
}
func (a memcachedKV) del(t *rt.Thread, k string) bool { return a.KV.Delete(t, k) }

type pmwalKV struct{ *pmwal.WAL }

func (a pmwalKV) put(t *rt.Thread, k, v string) error { return a.Put(t, k, []byte(v)) }
func (a pmwalKV) get(t *rt.Thread, k string) (uint64, bool) {
	v, ok := a.WAL.Get(t, k)
	if !ok {
		return 0, false
	}
	return targets.Fingerprint(string(v)), true
}
func (a pmwalKV) del(t *rt.Thread, k string) bool { return a.WAL.Delete(t, k) }

// systems lists a constructor per evaluated target; lruEvicts marks systems
// that may legitimately drop old keys under memory pressure.
var systems = []struct {
	name      string
	make      func() kv
	lruEvicts bool
}{
	{"pclht", func() kv { return pclhtKV{pclht.New()} }, false},
	{"clevel", func() kv { return clevelKV{clevel.New()} }, false},
	{"cceh", func() kv { return ccehKV{cceh.New()} }, false},
	{"fastfair", func() kv { return fastfairKV{fastfair.New()} }, false},
	{"memcached", func() kv { return memcachedKV{memcached.New()} }, true},
	{"pmwal", func() kv { return pmwalKV{pmwal.New()} }, false},
}

func newInstr(t *testing.T, tgt targets.Target) (*rt.Env, *rt.Thread) {
	t.Helper()
	env := rt.NewEnv(pmem.New(tgt.PoolSize()), rt.Config{HangTimeout: 100 * time.Millisecond})
	th := env.Spawn()
	if err := tgt.Setup(th); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return env, th
}

// TestConformanceSequentialModel runs a randomized put/get/delete workload
// against every system, checking each get against a map oracle. (Bounded
// keyspace keeps every structure within capacity; memcached is allowed to
// evict, so absent-but-expected keys are tolerated there.)
func TestConformanceSequentialModel(t *testing.T) {
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			s := sys.make()
			_, th := newInstr(t, s)
			oracle := map[string]string{}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("key%03d", rng.Intn(10))
				switch rng.Intn(4) {
				case 0, 1: // put
					val := fmt.Sprintf("val%06d", rng.Intn(1_000_000))
					if err := s.put(th, key, val); err != nil {
						t.Fatalf("op %d put: %v", i, err)
					}
					oracle[key] = val
				case 2: // get
					got, ok := s.get(th, key)
					want, exists := oracle[key]
					if exists != ok {
						if sys.lruEvicts && exists && !ok {
							delete(oracle, key) // evicted
							continue
						}
						t.Fatalf("op %d get(%s): present=%v, oracle=%v", i, key, ok, exists)
					}
					if ok && got != targets.Fingerprint(want) {
						t.Fatalf("op %d get(%s): wrong value", i, key)
					}
				default: // delete
					deleted := s.del(th, key)
					_, exists := oracle[key]
					if exists && !deleted && !sys.lruEvicts {
						t.Fatalf("op %d delete(%s): should have deleted", i, key)
					}
					delete(oracle, key)
				}
			}
		})
	}
}

// TestConformanceCrashDurability checks the fundamental PM contract on every
// system: once an operation completed (and thus flushed), its effect
// survives an immediate crash and recovery.
func TestConformanceCrashDurability(t *testing.T) {
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			s := sys.make()
			env, th := newInstr(t, s)
			n := 10
			if !sys.lruEvicts {
				n = 40
			}
			for i := 0; i < n; i++ {
				if err := s.put(th, fmt.Sprintf("key%03d", i), "durable"); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			img := env.Pool().CrashImage()
			s2 := sys.make()
			env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{HangTimeout: 100 * time.Millisecond})
			th2 := env2.Spawn()
			if err := s2.Recover(th2); err != nil {
				t.Fatalf("recover: %v", err)
			}
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key%03d", i)
				got, ok := s2.get(th2, k)
				if !ok || got != targets.Fingerprint("durable") {
					t.Fatalf("completed put of %s lost across crash (ok=%v)", k, ok)
				}
			}
		})
	}
}

// TestConformanceRecoveryIdempotent: recovering twice from the same image
// must work and preserve the data (restarts can crash and restart again).
func TestConformanceRecoveryIdempotent(t *testing.T) {
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			s := sys.make()
			env, th := newInstr(t, s)
			s.put(th, "stable", "v")
			img := env.Pool().CrashImage()

			s2 := sys.make()
			env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{HangTimeout: 100 * time.Millisecond})
			th2 := env2.Spawn()
			if err := s2.Recover(th2); err != nil {
				t.Fatalf("first recover: %v", err)
			}
			img2 := env2.Pool().CrashImage()

			s3 := sys.make()
			env3 := rt.NewEnv(pmem.FromImage(img2), rt.Config{HangTimeout: 100 * time.Millisecond})
			th3 := env3.Spawn()
			if err := s3.Recover(th3); err != nil {
				t.Fatalf("second recover: %v", err)
			}
			if _, ok := s3.get(th3, "stable"); !ok {
				t.Fatalf("data lost across double recovery")
			}
		})
	}
}

// TestConformanceEADRSafe: on an eADR platform every completed operation is
// durable even without any flushes — the simulated battery-backed cache
// keeps all five systems crash-safe by construction.
func TestConformanceEADRSafe(t *testing.T) {
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			s := sys.make()
			env := rt.NewEnv(pmem.NewWithOptions(s.PoolSize(), pmem.Options{EADR: true}),
				rt.Config{HangTimeout: 100 * time.Millisecond})
			th := env.Spawn()
			if err := s.Setup(th); err != nil {
				t.Fatalf("setup: %v", err)
			}
			s.put(th, "k", "v")
			if got := len(env.Detector().Candidates()); got != 0 {
				t.Fatalf("eADR execution produced %d dirty-read candidates", got)
			}
			img := env.Pool().CrashImage()
			s2 := sys.make()
			env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{HangTimeout: 100 * time.Millisecond})
			th2 := env2.Spawn()
			if err := s2.Recover(th2); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if _, ok := s2.get(th2, "k"); !ok {
				t.Fatalf("eADR store lost across crash")
			}
		})
	}
}

// TestConformanceRandomCrashRecovery crashes every system at arbitrary
// operation boundaries and requires recovery to (a) complete without
// hanging, and (b) leave a usable structure: a fresh put/get works after the
// restart. Crash images at op boundaries contain only completed, flushed
// state, so pre-failure locks are never persisted as held.
func TestConformanceRandomCrashRecovery(t *testing.T) {
	for _, sys := range systems {
		sys := sys
		t.Run(sys.name, func(t *testing.T) {
			s := sys.make()
			env, th := newInstr(t, s)
			rng := rand.New(rand.NewSource(7))
			var images [][]byte
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("key%03d", rng.Intn(12))
				switch rng.Intn(3) {
				case 0, 1:
					s.put(th, key, fmt.Sprintf("v%04d", i))
				default:
					s.del(th, key)
				}
				if i%10 == 9 {
					images = append(images, env.Pool().CrashImage())
				}
			}
			for n, img := range images {
				s2 := sys.make()
				env2 := rt.NewEnv(pmem.FromImage(img), rt.Config{HangTimeout: 100 * time.Millisecond})
				th2 := env2.Spawn()
				if err := s2.Recover(th2); err != nil {
					t.Fatalf("image %d: recover: %v", n, err)
				}
				if err := s2.put(th2, "post-crash", "alive"); err != nil {
					t.Fatalf("image %d: post-recovery put: %v", n, err)
				}
				got, ok := s2.get(th2, "post-crash")
				if !ok || got != targets.Fingerprint("alive") {
					t.Fatalf("image %d: post-recovery structure unusable", n)
				}
			}
		})
	}
}
