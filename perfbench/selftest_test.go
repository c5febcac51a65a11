package main

import (
	"strings"
	"testing"

	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// fixedPMWAL is pmwal's corrected variant, registered under a name of the
// benchmark's own so the recall check can be pointed at it.
const fixedPMWAL = "perfbench-pmwal-fixed"

func init() {
	targets.Register(fixedPMWAL, func() targets.Target { return pmwal.NewFixed() })
}

// TestRecallCheckReportsMisses runs the pmwal-hunt plan, follow-up hunts
// included, against the fixed variant: every expected group must come back
// as a failed operation. A recall check that passed here would be vacuous.
func TestRecallCheckReportsMisses(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	p := pmwalPlan(runConfig{seed: 1, seconds: 4, expected: exp.Groups["pmwal-hunt"]})
	p.Target = fixedPMWAL
	p.MaxExecs = 20
	o := newOutcome()
	p.record(p.run(false, ""), o)

	if len(o.failures) == 0 || o.attempted == 0 {
		t.Fatalf("fixed variant passed the recall check: attempted %d, failures %v", o.attempted, o.failures)
	}
	for _, g := range p.Expected {
		hit := false
		for _, f := range o.failures {
			hit = hit || strings.Contains(f, g)
		}
		if !hit {
			t.Errorf("group %s not reported missing; failures: %v", g, o.failures)
		}
	}
	t.Logf("failed_share %d/%d: %v", len(o.failures), o.attempted, o.failures)
}
