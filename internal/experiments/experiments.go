// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) against the Go reproduction:
//
//	Table 2 / Table 5 — unique bugs per system and type
//	Table 3 / Table 6 — inconsistencies, false positives, annotations
//	Table 4           — memcached command coverage, AFL++ vs PMRace mutator
//	Figure 8          — time to find PM Inter-thread Inconsistencies,
//	                    PMRace vs random delay injection
//	Figure 9          — runtime-coverage with and without the interleaving
//	                    and seed exploration tiers (P-CLHT)
//	Figure 10         — fuzzing speed with and without in-memory checkpoints
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// a 26-core Optane server); the comparisons the paper draws — who wins,
// which systems produce false positives, where checkpoints help — are the
// reproduction targets. EXPERIMENTS.md records paper-vs-measured values.
//
// Every campaign is built the way pmraced builds its own: an
// api.CampaignSpec budget goes through serve.FuzzOptions on top of the
// target's whitelist entries, at the engine's defaults, and Figures 8 and 9
// are read from the campaign's typed event stream.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/serve"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"

	// Register all evaluated systems.
	_ "github.com/pmrace-go/pmrace/internal/targets/cceh"
	_ "github.com/pmrace-go/pmrace/internal/targets/clevel"
	_ "github.com/pmrace-go/pmrace/internal/targets/fastfair"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
	_ "github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// paperSystems are the paper's evaluated targets in its presentation order.
var paperSystems = []string{"pclht", "clevel", "cceh", "fastfair", "memcached"}

// Systems lists every registered target: the paper's five in presentation
// order, then the rest by name.
func Systems() []string {
	out := slices.Clone(paperSystems)
	for _, name := range targets.Names() {
		if !slices.Contains(paperSystems, name) {
			out = append(out, name)
		}
	}
	return out
}

// displayNames maps registry names to the paper's system names.
var displayNames = map[string]string{
	"pclht":     "P-CLHT",
	"clevel":    "clevel hashing",
	"cceh":      "CCEH",
	"fastfair":  "FAST-FAIR",
	"memcached": "memcached-pmem",
}

// displayName returns the paper's name for a system, or its registry name
// when the paper does not evaluate it.
func displayName(name string) string {
	if d, ok := displayNames[name]; ok {
		return d
	}
	return name
}

// Quick returns a campaign budget small enough for CI tests.
func Quick() api.CampaignSpec {
	return api.CampaignSpec{MaxExecs: 24, Duration: 60 * time.Second, Workers: 2, Seed: 1}
}

// Full returns the campaign budget used to produce EXPERIMENTS.md. Two
// fuzzing workers keep goroutine counts sane on small machines — worker
// processes only pay off with real cores (the paper uses 13 on 52 threads).
func Full() api.CampaignSpec {
	return api.CampaignSpec{MaxExecs: 240, Duration: 10 * time.Minute, Workers: 2, Seed: 1}
}

// whitelister is the optional interface targets implement to contribute
// benign patterns (FAST-FAIR's lazy repair, memcached's checksums).
type whitelister interface{ Whitelist() []string }

// extraWhitelist returns the target-specific whitelist entries.
func extraWhitelist(name string) []string {
	tgt, err := targets.New(name)
	if err != nil {
		return nil
	}
	if w, ok := tgt.(whitelister); ok {
		return w.Whitelist()
	}
	return nil
}

// FuzzTarget runs one campaign of budget against a system in the given
// exploration mode: serve.FuzzOptions over the target's whitelist entries,
// with seed-tier exploration ablated when disableSeedTier is set (Figure 9's
// "w/o SE"). It returns the Result and the typed events the campaign emitted.
func FuzzTarget(name string, budget api.CampaignSpec, mode fuzz.ExploreMode, disableSeedTier bool) (*fuzz.Result, []obs.Event, error) {
	base := fuzz.Options{ExtraWhitelist: extraWhitelist(name), DisableSeedTier: disableSeedTier}
	budget.Target = name
	budget.Mode = mode.Spelling()
	opts, err := serve.FuzzOptions(base, budget)
	if err != nil {
		return nil, nil, err
	}
	fz, err := fuzz.New(name, opts)
	if err != nil {
		return nil, nil, err
	}
	col := obs.NewCollector()
	fz.SetEmitter(obs.NewEmitter(col))
	res, err := fz.Run()
	if err != nil {
		return nil, nil, err
	}
	return res, col.Events(), nil
}

// --- Tables 2, 3, 5 and 6 ---

// BugDetection is the shared result of the bug-detection campaigns, from
// which Tables 2, 3, 5 and 6 are all derived.
type BugDetection struct {
	Results map[string]*fuzz.Result
}

// RunBugDetection fuzzes every system with the PM-aware exploration.
func RunBugDetection(budget api.CampaignSpec) (*BugDetection, error) {
	bd := &BugDetection{Results: make(map[string]*fuzz.Result)}
	for _, name := range Systems() {
		res, _, err := FuzzTarget(name, budget, fuzz.ModePMAware, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: fuzzing %s: %w", name, err)
		}
		bd.Results[name] = res
	}
	return bd, nil
}

// Table2 renders the per-bug listing (paper Table 2): every unique bug with
// its type, grouping site and description, plus the "Other" findings.
func (bd *BugDetection) Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: unique bugs found by PMRace\n")
	b.WriteString(fmt.Sprintf("%-16s %-6s %-10s %-24s %s\n", "System", "#", "Type", "Site", "Description"))
	n := 0
	for _, name := range Systems() {
		res := bd.Results[name]
		for _, bug := range res.Bugs {
			n++
			loc := site.Lookup(bug.GroupSite).String()
			desc := bug.Summary
			if bug.Kind == core.KindSync {
				desc = fmt.Sprintf("persistent %q not re-initialized after restart (hang)", bug.VarName)
			}
			b.WriteString(fmt.Sprintf("%-16s %-6d %-10s %-24s %s\n", displayName(name), n, bug.Kind, loc, desc))
		}
		for _, other := range res.DB.Others() {
			n++
			b.WriteString(fmt.Sprintf("%-16s %-6d %-10s %-24s %s\n", displayName(name), n, "Other",
				site.Lookup(other.Site).String(), other.Kind+": "+other.Description))
		}
	}
	return b.String()
}

// Table5Row is the summarized bug matrix (paper Table 5).
type Table5Row struct {
	System string
	Inter  int
	Sync   int
	Intra  int
	Other  int
	Total  int
}

// Table5 computes the summary matrix.
func (bd *BugDetection) Table5() []Table5Row {
	var rows []Table5Row
	for _, name := range Systems() {
		res := bd.Results[name]
		row := Table5Row{System: displayName(name)}
		for _, bug := range res.Bugs {
			switch bug.Kind {
			case core.KindInter:
				row.Inter++
			case core.KindSync:
				row.Sync++
			case core.KindIntra:
				row.Intra++
			}
		}
		row.Other = len(res.DB.Others())
		row.Total = row.Inter + row.Sync + row.Intra + row.Other
		rows = append(rows, row)
	}
	return rows
}

// Table5String renders Table 5.
func (bd *BugDetection) Table5String() string {
	var b strings.Builder
	b.WriteString("Table 5: the number of unique bugs found by PMRace\n")
	b.WriteString(fmt.Sprintf("%-16s %6s %6s %6s %6s %6s\n", "System", "Inter", "Sync", "Intra", "Other", "Total"))
	var tot Table5Row
	for _, r := range bd.Table5() {
		b.WriteString(fmt.Sprintf("%-16s %6d %6d %6d %6d %6d\n", r.System, r.Inter, r.Sync, r.Intra, r.Other, r.Total))
		tot.Inter += r.Inter
		tot.Sync += r.Sync
		tot.Intra += r.Intra
		tot.Other += r.Other
		tot.Total += r.Total
	}
	b.WriteString(fmt.Sprintf("%-16s %6d %6d %6d %6d %6d\n", "Total", tot.Inter, tot.Sync, tot.Intra, tot.Other, tot.Total))
	return b.String()
}

// Table3Row is one system's detection/false-positive aggregate (Tables 3/6).
type Table3Row struct {
	System        string
	InterCand     int
	Inter         int
	ValidatedFP   int
	WhitelistedFP int
	InterBugs     int
	Annotations   int
	Sync          int
	SyncFP        int
	SyncBugs      int
}

// Table3 computes the detection aggregates.
func (bd *BugDetection) Table3() []Table3Row {
	var rows []Table3Row
	for _, name := range Systems() {
		res := bd.Results[name]
		tgt, _ := targets.New(name)
		c := res.Counts
		rows = append(rows, Table3Row{
			System:        displayName(name),
			InterCand:     c.InterCandidates,
			Inter:         c.Inter,
			ValidatedFP:   c.InterValidated,
			WhitelistedFP: c.InterWhitelist,
			InterBugs:     c.InterBugs,
			Annotations:   tgt.Annotations(),
			Sync:          c.Sync,
			SyncFP:        c.SyncValidated,
			SyncBugs:      c.SyncBugs,
		})
	}
	return rows
}

// Table3String renders Tables 3/6.
func (bd *BugDetection) Table3String() string {
	var b strings.Builder
	b.WriteString("Table 3: PM concurrency bug detection results\n")
	b.WriteString(fmt.Sprintf("%-16s %10s %6s %12s %14s %5s | %10s %5s %8s %5s\n",
		"System", "Inter-Cand", "Inter", "ValidatedFP", "WhitelistedFP", "Bug", "Annotation", "Sync", "SyncFP", "Bug"))
	var tot Table3Row
	for _, r := range bd.Table3() {
		b.WriteString(fmt.Sprintf("%-16s %10d %6d %12d %14d %5d | %10d %5d %8d %5d\n",
			r.System, r.InterCand, r.Inter, r.ValidatedFP, r.WhitelistedFP, r.InterBugs,
			r.Annotations, r.Sync, r.SyncFP, r.SyncBugs))
		tot.InterCand += r.InterCand
		tot.Inter += r.Inter
		tot.ValidatedFP += r.ValidatedFP
		tot.WhitelistedFP += r.WhitelistedFP
		tot.InterBugs += r.InterBugs
		tot.Annotations += r.Annotations
		tot.Sync += r.Sync
		tot.SyncFP += r.SyncFP
		tot.SyncBugs += r.SyncBugs
	}
	b.WriteString(fmt.Sprintf("%-16s %10d %6d %12d %14d %5d | %10d %5d %8d %5d\n",
		"Total", tot.InterCand, tot.Inter, tot.ValidatedFP, tot.WhitelistedFP, tot.InterBugs,
		tot.Annotations, tot.Sync, tot.SyncFP, tot.SyncBugs))
	return b.String()
}

// --- Figure 8 ---

// Figure8Series is the detection-time series of one (system, scheme) pair.
type Figure8Series struct {
	System string
	Scheme string
	// Times are the elapsed times, in order, at which the run found each
	// unique PM Inter-thread Inconsistency: the At of every inter-class
	// InconsistencyFound event (each is one point in Figure 8).
	Times []time.Duration
	// Execs is the total executions of the run.
	Execs int
}

// FirstHit returns the earliest detection time, or 0/false when none.
func (s Figure8Series) FirstHit() (time.Duration, bool) {
	if len(s.Times) == 0 {
		return 0, false
	}
	min := s.Times[0]
	for _, t := range s.Times[1:] {
		if t < min {
			min = t
		}
	}
	return min, true
}

// RunFigure8 compares PMRace's exploration against random delay injection on
// the three systems with PM Interleaving Concurrency Bugs (clevel and CCEH
// are excluded, as in the paper).
func RunFigure8(budget api.CampaignSpec) ([]Figure8Series, error) {
	var out []Figure8Series
	for _, name := range []string{"pclht", "fastfair", "memcached"} {
		for _, mode := range []fuzz.ExploreMode{fuzz.ModePMAware, fuzz.ModeDelayInj} {
			res, events, err := FuzzTarget(name, budget, mode, false)
			if err != nil {
				return nil, err
			}
			out = append(out, Figure8Series{
				System: displayName(name),
				Scheme: mode.String(),
				Times:  interTimes(events),
				Execs:  res.Execs,
			})
		}
	}
	return out, nil
}

// interTimes returns the At of every inter-class InconsistencyFound event,
// in emission order.
func interTimes(events []obs.Event) []time.Duration {
	var out []time.Duration
	for _, ev := range events {
		if f, ok := ev.(*obs.InconsistencyFound); ok && f.Class == "inter" {
			out = append(out, f.At)
		}
	}
	return out
}

// Figure8String renders the series.
func Figure8String(series []Figure8Series) string {
	var b strings.Builder
	b.WriteString("Figure 8: time to identify PM Inter-thread Inconsistency\n")
	for _, s := range series {
		first := "none"
		if t, ok := s.FirstHit(); ok {
			first = t.Round(time.Millisecond).String()
		}
		b.WriteString(fmt.Sprintf("%-16s %-9s first=%-10s hits=%-4d execs=%d\n",
			s.System, s.Scheme, first, len(s.Times), s.Execs))
	}
	return b.String()
}

// --- Figure 9 ---

// CoverPoint is one point of a Figure 9 curve: the global coverage after an
// execution, at the elapsed time the execution finished.
type CoverPoint struct {
	T      time.Duration
	Branch int
	Alias  int
}

// Figure9Series is one exploration variant's coverage timeline.
type Figure9Series struct {
	Variant  string
	Timeline []CoverPoint
	Branch   int
	Alias    int
}

// figure9Variants are Figure 9's campaigns: the full fuzzer, the seed tier
// alone (ModeNone runs no interleaving tier) and the interleaving tier alone.
var figure9Variants = []struct {
	name            string
	mode            fuzz.ExploreMode
	disableSeedTier bool
}{
	{"PMRace", fuzz.ModePMAware, false},
	{"w/o IE", fuzz.ModeNone, false},
	{"w/o SE", fuzz.ModePMAware, true},
}

// RunFigure9 measures the P-CLHT runtime-coverage tradeoff for the full
// fuzzer, without interleaving-tier exploration and without seed-tier
// exploration (single worker, as in the paper's case study).
func RunFigure9(budget api.CampaignSpec) ([]Figure9Series, error) {
	budget.Workers = 1
	var out []Figure9Series
	for _, v := range figure9Variants {
		res, events, err := FuzzTarget("pclht", budget, v.mode, v.disableSeedTier)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure9Series{
			Variant:  v.name,
			Timeline: coverTimeline(events),
			Branch:   res.BranchCov,
			Alias:    res.AliasCov,
		})
	}
	return out, nil
}

// coverTimeline returns one point per ExecDone event: its At and the global
// coverage counts it reports.
func coverTimeline(events []obs.Event) []CoverPoint {
	var out []CoverPoint
	for _, ev := range events {
		if d, ok := ev.(*obs.ExecDone); ok {
			out = append(out, CoverPoint{T: d.At, Branch: d.BranchCov, Alias: d.AliasCov})
		}
	}
	return out
}

// Figure9String renders the final coverages and curve lengths.
func Figure9String(series []Figure9Series) string {
	var b strings.Builder
	b.WriteString("Figure 9: runtime-coverage of PMRace with P-CLHT\n")
	for _, s := range series {
		b.WriteString(fmt.Sprintf("%-8s branch=%-6d alias=%-6d points=%d\n",
			s.Variant, s.Branch, s.Alias, len(s.Timeline)))
	}
	return b.String()
}
