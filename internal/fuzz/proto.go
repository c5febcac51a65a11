// This file implements protocol-traffic execution: playing recorded byte
// streams through the wire front-end instead of dispatching an abstract
// operation vector. The parsed commands enter the target through the same
// Exec path as synthetic seeds, so detection sites — and therefore bug
// fingerprints — are shared between the two modes (DESIGN.md §16).

package fuzz

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/validate"
	"github.com/pmrace-go/pmrace/internal/wire"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// maxCrashImagesPerExec bounds the crash states captured at protocol crash
// points in one execution. Each holds only the lines the execution changed
// from the checkpoint (pmem.Pool.PersistedState), and its recovery replay
// (checkCrashRecovery) resets a recycled pool on the same checkpoint by
// rewriting only those lines and the ones the pool's last recovery touched,
// so a crash point costs in proportion to the execution's touched set, not
// the pool size.
const maxCrashImagesPerExec = 4

// protoThreadCount clamps the seed's thread count to the number of
// connection streams: with more streams than threads, each thread serves
// several connections back to back (connection churn).
func protoThreadCount(seed *workload.Seed) int {
	n := seed.Threads
	if n < 1 {
		n = 1
	}
	if ns := len(seed.Proto.Streams); n > ns {
		n = ns
	}
	return n
}

// protoWorker is one driver thread of a protocol execution: it plays
// streams ti, ti+nthreads, ... through an incremental parser, executing
// each parsed command against the target. At a crash point the pool's
// persisted state is captured after the command was parsed but before its
// first PM store — the image a real server would leave if it died
// mid-request.
func (x *Executor) protoWorker(th *rt.Thread, tgt targets.Target, seed *workload.Seed, ti, nthreads int, res *ExecResult, mu *sync.Mutex) {
	ps := seed.Proto
	crash := make(map[[2]int]bool, len(ps.Crash))
	for _, cp := range ps.Crash {
		crash[[2]int{cp.Stream, cp.Cmd}] = true
	}
	for si := ti; si < len(ps.Streams); si += nthreads {
		p := wire.NewParser()
		p.Feed(ps.Streams[si])
		cmdIdx := 0
	stream:
		for {
			cmd, ok := p.Next()
			if !ok {
				break
			}
			if cmd.Quit {
				break
			}
			if crash[[2]int{si, cmdIdx}] {
				st := th.Env().Pool().PersistedState()
				mu.Lock()
				if len(res.CrashPoints) < maxCrashImagesPerExec {
					res.CrashPoints = append(res.CrashPoints, st)
				}
				mu.Unlock()
			}
			for _, op := range cmd.Ops() {
				if err := tgt.Exec(th, op); err != nil {
					mu.Lock()
					res.ExecErrors++
					mu.Unlock()
				}
			}
			cmdIdx++
			if cmdIdx > 4096 {
				break stream // runaway stream; seeds never get this long
			}
		}
	}
}

// checkCrashRecovery replays one crash state through a fresh target's
// recovery code in the validation sandbox, bounded by
// validate.DefaultWallTimeout, and reports a non-empty failure description when recovery hangs,
// errors, panics or times out. The sandbox owns and recycles the pool.
func (x *Executor) checkCrashRecovery(st pmem.CrashState) string {
	hung, wallTimedOut, err := validate.RunRecovery(x.factory, st, validate.DefaultWallTimeout, nil)
	switch {
	case wallTimedOut:
		return "recovery timed out at protocol crash point"
	case hung:
		return "recovery hung at protocol crash point"
	case err != nil:
		return fmt.Sprintf("recovery failed at protocol crash point: %v", err)
	}
	return ""
}

// ProtoMutator mutates protocol byte-stream seeds. Strategies preserve the
// seed form (streams stay framed command traffic, possibly with junk) while
// varying connection count, pipelining depth, command mix and crash-point
// placement.
type ProtoMutator struct {
	gen *workload.ProtoGen
}

// NewProtoMutator creates the protocol mutator; the generator seeds fresh
// command material.
func NewProtoMutator(rngSeed int64, keySpace, threads int) *ProtoMutator {
	return &ProtoMutator{gen: workload.NewProtoGen(rngSeed, keySpace, threads)}
}

// Mutate implements Mutator for protocol seeds. Non-protocol corpus
// entries (possible when a mixed corpus directory is loaded) fall back to a
// freshly generated protocol seed.
func (m *ProtoMutator) Mutate(rng *rand.Rand, corpus []*workload.Seed) *workload.Seed {
	var protoSeeds []*workload.Seed
	for _, s := range corpus {
		if s.Proto != nil && len(s.Proto.Streams) > 0 {
			protoSeeds = append(protoSeeds, s)
		}
	}
	if len(protoSeeds) == 0 {
		return m.gen.MixSeed(6, 10)
	}
	s := protoSeeds[rng.Intn(len(protoSeeds))].Clone()
	ps := s.Proto
	switch rng.Intn(6) {
	case 0:
		// Append a burst of fresh commands to one stream.
		si := rng.Intn(len(ps.Streams))
		b := ps.Streams[si]
		for i := 1 + rng.Intn(6); i > 0; i-- {
			b = m.gen.Command(b)
		}
		ps.Streams[si] = b
	case 1:
		// Open a new connection (stream), sometimes malformed.
		ps.Streams = append(ps.Streams, m.gen.Stream(1+rng.Intn(8), 120))
	case 2:
		// Splice a stream from another corpus entry (crossover).
		o := protoSeeds[rng.Intn(len(protoSeeds))]
		ps.Streams = append(ps.Streams, append([]byte(nil), o.Proto.Streams[rng.Intn(len(o.Proto.Streams))]...))
	case 3:
		// Byte havoc in a small window: malformed frames mid-stream.
		si := rng.Intn(len(ps.Streams))
		b := ps.Streams[si]
		if len(b) > 0 {
			for i := 1 + rng.Intn(4); i > 0; i-- {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
		}
	case 4:
		// Drop a stream (shorter-lived connections).
		if len(ps.Streams) > 1 {
			si := rng.Intn(len(ps.Streams))
			ps.Streams = append(ps.Streams[:si], ps.Streams[si+1:]...)
			kept := ps.Crash[:0]
			for _, cp := range ps.Crash {
				if cp.Stream < si {
					kept = append(kept, cp)
				} else if cp.Stream > si {
					cp.Stream--
					kept = append(kept, cp)
				}
			}
			ps.Crash = kept
		}
	default:
		// Move or add a mid-request crash point.
		cp := workload.CrashPoint{Stream: rng.Intn(len(ps.Streams)), Cmd: rng.Intn(16)}
		if len(ps.Crash) > 0 && rng.Intn(2) == 0 {
			ps.Crash[rng.Intn(len(ps.Crash))] = cp
		} else if len(ps.Crash) < 4 {
			ps.Crash = append(ps.Crash, cp)
		}
	}
	return s
}

var _ Mutator = (*ProtoMutator)(nil)
