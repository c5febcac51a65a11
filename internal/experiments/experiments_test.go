package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/taint"
	"github.com/pmrace-go/pmrace/internal/targets"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
)

func TestSystemsAndDisplayNames(t *testing.T) {
	sys := Systems()
	if !slices.Equal(sys[:len(paperSystems)], paperSystems) {
		t.Fatalf("systems = %v, want the paper's five first, in order", sys)
	}
	reg := targets.Names()
	if len(sys) != len(reg) || !slices.Contains(sys, "pmwal") {
		t.Fatalf("systems = %v, want every registered target %v", sys, reg)
	}
	for _, name := range reg {
		if !slices.Contains(sys, name) {
			t.Fatalf("registered target %s missing from %v", name, sys)
		}
	}
	for _, s := range paperSystems {
		if displayName(s) == s {
			t.Fatalf("missing display name for %s", s)
		}
	}
	if displayName("pmwal") != "pmwal" {
		t.Fatalf("a target outside the paper must display as its registry name")
	}
}

func TestExtraWhitelist(t *testing.T) {
	if len(extraWhitelist("fastfair")) == 0 {
		t.Fatalf("fastfair must contribute whitelist entries")
	}
	if len(extraWhitelist("memcached")) == 0 {
		t.Fatalf("memcached must contribute whitelist entries")
	}
	if len(extraWhitelist("pclht")) != 0 {
		t.Fatalf("pclht has no extra whitelist")
	}
	if extraWhitelist("unknown") != nil {
		t.Fatalf("unknown target must yield nil")
	}
}

func TestRunTable4Shape(t *testing.T) {
	res, err := RunTable4(Quick())
	if err != nil {
		t.Fatalf("table 4: %v", err)
	}
	afl, pmr := res.Commands["AFL++"], res.Commands["PMRace"]
	if afl["Error"] == 0 {
		t.Errorf("AFL++ byte mutator must produce Error commands, got %v", afl)
	}
	if pmr["Error"] != 0 {
		t.Errorf("PMRace operation mutator must produce no Error commands, got %v", pmr)
	}
	if pmr["Update*"] == 0 || afl["Update*"] == 0 {
		t.Errorf("both schemes must exercise updates: %v vs %v", pmr, afl)
	}
	out := res.String()
	for _, want := range []string{"AFL++", "PMRace", "Get*", "Error"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	budget := Quick()
	budget.MaxExecs = 12
	rows, err := RunFigure10(budget)
	if err != nil {
		t.Fatalf("figure 10: %v", err)
	}
	if len(rows) != 2*len(Systems()) { // every system x 2 generators
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape: checkpoints speed up at least one pmdk-based target and do
	// not speed up memcached meaningfully.
	pmdkFaster := false
	for _, r := range rows {
		if r.System != "memcached-pmem" && r.Speedup() > 1.2 {
			pmdkFaster = true
		}
	}
	if !pmdkFaster {
		t.Errorf("checkpoints should speed up pool-formatted targets: %+v", rows)
	}
	out := Figure10String(rows)
	if !strings.Contains(out, "speedup") {
		t.Errorf("rendering wrong:\n%s", out)
	}
}

func TestBugDetectionQuickPCLHT(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	// Single-target slice of the Table 2 pipeline, asserting the
	// paper-shaped outcome for P-CLHT.
	budget := Quick()
	budget.MaxExecs = 40
	res, _, err := FuzzTarget("pclht", budget, fuzz.ModePMAware, false)
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	kinds := map[core.Kind]bool{}
	for _, b := range res.Bugs {
		kinds[b.Kind] = true
	}
	if !kinds[core.KindSync] {
		t.Errorf("P-CLHT sync bug missing: %+v", res.Bugs)
	}
	if !kinds[core.KindIntra] {
		t.Errorf("P-CLHT intra bug missing: %+v", res.Bugs)
	}
}

// TestFigure8QuickSingleTarget checks that a Figure 8 series is the
// campaign's inter-class InconsistencyFound events: its first hit is the
// first such event's At.
func TestFigure8QuickSingleTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	budget := Quick()
	budget.MaxExecs = 16
	res, events, err := FuzzTarget("memcached", budget, fuzz.ModePMAware, false)
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	var first time.Duration
	found := false
	for _, ev := range events {
		if f, ok := ev.(*obs.InconsistencyFound); ok && f.Class == "inter" {
			first, found = f.At, true
			break
		}
	}
	if !found {
		t.Fatalf("memcached should produce inter-inconsistency detections quickly")
	}
	s := Figure8Series{System: "m", Scheme: "PMRace", Times: interTimes(events), Execs: res.Execs}
	if hit, ok := s.FirstHit(); !ok || hit != first {
		t.Errorf("first hit = %v, %v; want the first inter InconsistencyFound.At %v", hit, ok, first)
	}
	out := Figure8String([]Figure8Series{s})
	if !strings.Contains(out, "first=") {
		t.Errorf("rendering wrong:\n%s", out)
	}
}

// TestFigure9QuickPCLHT checks that each Figure 9 curve is its campaign's
// exec_done stream: one point per execution, coverage never decreasing, and
// the last point equal to the Result's coverage. "w/o IE" schedules no
// interleaving; the full fuzzer does.
func TestFigure9QuickPCLHT(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	budget := Quick()
	budget.Workers = 1
	for _, v := range figure9Variants {
		t.Run(v.name, func(t *testing.T) {
			res, events, err := FuzzTarget("pclht", budget, v.mode, v.disableSeedTier)
			if err != nil {
				t.Fatalf("fuzz: %v", err)
			}
			done := 0
			for _, ev := range events {
				if ev.Kind() == obs.KindExecDone {
					done++
				}
			}
			pts := coverTimeline(events)
			if len(pts) != done || len(pts) != res.Execs || len(pts) == 0 {
				t.Fatalf("points = %d, exec_done events = %d, execs = %d", len(pts), done, res.Execs)
			}
			for i := 1; i < len(pts); i++ {
				p, q := pts[i-1], pts[i]
				if q.T < p.T || q.Branch < p.Branch || q.Alias < p.Alias {
					t.Fatalf("point %d decreases: %+v after %+v", i, q, p)
				}
			}
			if last := pts[len(pts)-1]; last.Branch != res.BranchCov || last.Alias != res.AliasCov {
				t.Fatalf("last point %+v, result coverage branch=%d alias=%d", last, res.BranchCov, res.AliasCov)
			}
			if ie := v.mode == fuzz.ModePMAware; (res.Interleavings > 0) != ie {
				t.Fatalf("%d interleavings scheduled; want some: %v", res.Interleavings, ie)
			}
		})
	}
}

func TestFigure8SeriesFirstHitEmpty(t *testing.T) {
	s := Figure8Series{}
	if _, ok := s.FirstHit(); ok {
		t.Fatalf("empty series has no first hit")
	}
	if !strings.Contains(Figure8String([]Figure8Series{s}), "none") {
		t.Fatalf("empty series must render as none")
	}
}

// synthetic constructs a BugDetection with hand-built results, exercising the
// table derivations without fuzzing.
func synthetic() *BugDetection {
	bd := &BugDetection{Results: map[string]*fuzz.Result{}}
	for _, name := range Systems() {
		db := core.NewDB()
		res := &fuzz.Result{Target: name, DB: db}
		bd.Results[name] = res
	}
	// P-CLHT: one inter bug, one validated FP, one sync bug, one other.
	db := bd.Results["pclht"].DB
	j1, _ := db.MergeInconsistency(&core.Inconsistency{Kind: core.KindInter, Count: 1})
	j1.Status = core.StatusBug
	j2, _ := db.MergeInconsistency(&core.Inconsistency{
		Kind: core.KindInter, Count: 1, StoreSite: 5,
		Event: taintEvent(9),
	})
	j2.Status = core.StatusValidatedFP
	js, _ := db.MergeSync(&core.SyncInconsistency{Var: core.SyncVar{Name: "bucket-lock"}, Site: 3, Count: 1})
	js.Status = core.StatusBug
	db.AddOther(core.OtherFinding{Kind: "hang", Site: 1})
	for name := range bd.Results {
		bd.Results[name].Counts = bd.Results[name].DB.Tally()
		bd.Results[name].Bugs = bd.Results[name].DB.UniqueBugs()
	}
	return bd
}

func taintEvent(writeSite uint32) taint.Event {
	return taint.Event{WriteSite: writeSite, ReadSite: writeSite + 1, Writer: 1, Reader: 2}
}

func TestTable5FromSyntheticResults(t *testing.T) {
	bd := synthetic()
	rows := bd.Table5()
	if len(rows) != len(Systems()) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].System != "P-CLHT" || rows[0].Inter != 1 || rows[0].Sync != 1 || rows[0].Other != 1 {
		t.Fatalf("pclht row = %+v", rows[0])
	}
	if rows[1].Total != 0 {
		t.Fatalf("clevel must be empty: %+v", rows[1])
	}
	out := bd.Table5String()
	if !strings.Contains(out, "P-CLHT") || !strings.Contains(out, "pmwal") || !strings.Contains(out, "Total") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestTable3FromSyntheticResults(t *testing.T) {
	bd := synthetic()
	rows := bd.Table3()
	if rows[0].Inter != 2 || rows[0].ValidatedFP != 1 || rows[0].InterBugs != 1 {
		t.Fatalf("pclht table3 row = %+v", rows[0])
	}
	if rows[0].Annotations != 4 {
		t.Fatalf("pclht annotations = %d", rows[0].Annotations)
	}
	out := bd.Table3String()
	if !strings.Contains(out, "Inter-Cand") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	bd := synthetic()
	out := bd.Table2()
	for _, want := range []string{"P-CLHT", "Sync", "bucket-lock", "hang"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9StringRendering(t *testing.T) {
	out := Figure9String([]Figure9Series{{Variant: "PMRace", Branch: 10, Alias: 20}})
	if !strings.Contains(out, "PMRace") || !strings.Contains(out, "alias=20") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestFigure10RowSpeedup(t *testing.T) {
	r := Figure10Row{WithCP: 20, WithoutCP: 10}
	if r.Speedup() != 2 {
		t.Fatalf("speedup = %f", r.Speedup())
	}
	if (Figure10Row{}).Speedup() != 0 {
		t.Fatalf("zero row speedup must be 0")
	}
}

func TestCSVWriters(t *testing.T) {
	dir := t.TempDir()
	if err := Figure8CSV(dir, []Figure8Series{{System: "s", Scheme: "PMRace", Times: []time.Duration{time.Millisecond}}}); err != nil {
		t.Fatalf("figure8 csv: %v", err)
	}
	if err := Figure9CSV(dir, []Figure9Series{{Variant: "PMRace", Timeline: []CoverPoint{{T: time.Second, Branch: 1, Alias: 2}}}}); err != nil {
		t.Fatalf("figure9 csv: %v", err)
	}
	if err := Figure10CSV(dir, []Figure10Row{{System: "s", Generator: "g", WithCP: 2, WithoutCP: 1}}); err != nil {
		t.Fatalf("figure10 csv: %v", err)
	}
	for _, f := range []string{"figure8.csv", "figure9.csv", "figure10.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v (%d bytes)", f, err, len(data))
		}
	}
}
