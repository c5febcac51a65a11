package fuzz

import (
	"fmt"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/obs"
	_ "github.com/pmrace-go/pmrace/internal/targets/clevel"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
)

// maxTimerExits bounds the PM-aware waits per campaign that end on their
// timer (sched_cond_wait_timeouts_total + sched_writer_stall_timeouts_total)
// in TestPMAwareWaitsEndOnEvents.
const maxTimerExits = 10

// TestPMAwareWaitsEndOnEvents pins that PM-aware waits behind the targets'
// volatile mutexes end on events. mini-PMDK's allocator and transaction
// mutexes (clevel) and memcached's cache lock are taken through
// rt.Thread.LockMutex, so a thread blocked on one is reported parked, and a
// cond_wait or writer stall that no thread can end exits at once instead of
// on its 4 ms or 2 ms timer. With those mutexes taken raw, the same
// one-worker, 300-execution campaigns counted 37–44 timer exits on clevel
// and 48–130 on memcached.
//
// Under the race detector every hook runs many times slower, so a writer
// that is running can miss the 4 ms bound and readers that are running can
// outlast the 2 ms stall: timer exits there measure the slowdown, not a
// wait nobody can end. A race build runs the campaigns for the detector and
// logs the counts without bounding them.
func TestPMAwareWaitsEndOnEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing loops")
	}
	for _, tc := range []struct {
		target   string
		protocol bool
	}{{"clevel", false}, {"memcached", true}} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.target, seed), func(t *testing.T) {
				fz, err := New(tc.target, Options{
					Workers:        1,
					MaxExecs:       300,
					Duration:       2 * time.Minute,
					Seed:           seed,
					Protocol:       tc.protocol,
					MaxCrashStates: 4,
				})
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				res, err := fz.Run()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				reg := fz.Emitter().Registry()
				waits := reg.Counter(obs.MCondWaitTimeouts).Value()
				stalls := reg.Counter(obs.MWriterStallTimeouts).Value()
				t.Logf("%d execs: %d cond_wait and %d writer-stall timer exits", res.Execs, waits, stalls)
				if !raceEnabled && waits+stalls > maxTimerExits {
					t.Errorf("%d cond_wait + %d writer-stall timer exits, want at most %d", waits, stalls, maxTimerExits)
				}
			})
		}
	}
}
