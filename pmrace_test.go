package pmrace_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func TestTargetsRegistered(t *testing.T) {
	names := pmrace.Targets()
	want := map[string]bool{"pclht": true, "clevel": true, "cceh": true, "fastfair": true, "memcached": true}
	found := 0
	for _, n := range names {
		if want[n] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("registered targets = %v, want all five systems", names)
	}
}

func TestFuzzUnknownTarget(t *testing.T) {
	_, err := pmrace.NewCampaign(context.Background(), "no-such-system")
	if err == nil {
		t.Fatalf("unknown target must error")
	}
	// The failure is typed — callers (the pmraced control plane maps it to
	// an HTTP 400) match it with errors.Is — and names the alternatives.
	if !errors.Is(err, pmrace.ErrUnknownTarget) {
		t.Fatalf("err = %v, want errors.Is ErrUnknownTarget", err)
	}
	if !strings.Contains(err.Error(), "no-such-system") || !strings.Contains(err.Error(), "pclht") {
		t.Fatalf("error %q does not name the offender and the registered targets", err)
	}
	checkPrefixedOnce(t, err)
	if !strings.HasPrefix(err.Error(), "pmrace: unknown target") {
		t.Fatalf("error %q does not start with %q", err, "pmrace: unknown target")
	}
}

// checkPrefixedOnce fails unless err carries NewCampaign's "pmrace: "
// prefix exactly once.
func checkPrefixedOnce(t *testing.T, err error) {
	t.Helper()
	if msg := err.Error(); !strings.HasPrefix(msg, "pmrace: ") || strings.Contains(msg, "pmrace: pmrace:") {
		t.Fatalf("error %q must carry the pmrace: prefix exactly once", msg)
	}
}

// TestNewCampaignRejectsBadOptions: option combinations the spec
// translation rejects fail in NewCampaign, before any campaign starts.
func TestNewCampaignRejectsBadOptions(t *testing.T) {
	for name, opts := range map[string][]pmrace.CampaignOption{
		"all artifacts without artifacts": {pmrace.WithAllArtifacts()},
		"mode outside the table":          {pmrace.WithMode(pmrace.ExploreMode(7))},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := pmrace.NewCampaign(context.Background(), "pclht", opts...)
			if err == nil {
				c.Wait()
				t.Fatal("NewCampaign succeeded, want an error")
			}
			checkPrefixedOnce(t, err)
		})
	}
}

func TestFuzzSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	c, err := pmrace.NewCampaign(context.Background(), "clevel",
		pmrace.WithBudget(6, 30*time.Second),
		pmrace.WithSeed(3),
	)
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	if res.Execs == 0 || res.BranchCov == 0 {
		t.Fatalf("result = %+v", res)
	}
	// clevel has no true concurrency bugs (paper Table 2).
	for _, b := range res.Bugs {
		if b.Kind == pmrace.KindInter || b.Kind == pmrace.KindSync {
			t.Errorf("clevel must have no inter/sync bugs, got %+v", b)
		}
	}
}

// TestPublicEnvAPI exercises the documented path for testing custom PM code:
// create a pool and environment, run instrumented accesses, inspect findings.
func TestPublicEnvAPI(t *testing.T) {
	env := pmrace.NewEnv(pmrace.NewPool(4096))
	t1 := env.Spawn()
	t2 := env.Spawn()
	t1.Store64(64, 42, taint.None, taint.None) // unflushed
	v, lab := t2.Load64(64)
	t2.Store64(512, v, lab, taint.None) // durable side effect
	if got := len(env.Detector().Inconsistencies()); got != 1 {
		t.Fatalf("inconsistencies = %d, want 1", got)
	}
	img := env.Pool().CrashImage()
	re := pmrace.PoolFromImage(img)
	if re.Load64(64) != 0 {
		t.Fatalf("unflushed store must not survive the crash image")
	}
}

func TestSeedAndOpReexports(t *testing.T) {
	s := &pmrace.Seed{Ops: []pmrace.Op{{Kind: workload.OpSet, Key: "k", Value: "v"}}, Threads: 2}
	if len(s.Split()) != 2 {
		t.Fatalf("seed split broken")
	}
}
