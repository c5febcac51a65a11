package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/obs"
)

// expected.json lists, per target, the seeded-bug groups a campaign of the
// benchmark must confirm. A group is the paper's unit of counting (§6.2):
// every inconsistency sharing one non-persisted write site, or every update
// of one synchronization variable at one site. Keys are normalized bug
// fingerprints cut to the group ("inter|<write site>", "intra|<write site>",
// "sync|<var>@<site>"), so a generated shadow copy of a target matches the
// hand-instrumented one.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	// Groups maps workload -> target -> required bug groups.
	Groups map[string]map[string][]string `json:"groups"`
}

func loadExpected() (expectation, error) {
	var e expectation
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	for _, byTarget := range e.Groups {
		for _, gs := range byTarget {
			for i, g := range gs {
				gs[i] = fuzz.NormalizeFingerprint(g)
			}
		}
	}
	return e, nil
}

// groupOfEvent returns the group key of a BugConfirmed event.
func groupOfEvent(b *obs.BugConfirmed) string {
	if b.Class == "sync" {
		return fuzz.NormalizeFingerprint("sync|" + b.Var + "@" + b.Site)
	}
	return fuzz.NormalizeFingerprint(b.Class + "|" + b.Site)
}

// groupOfFingerprint cuts a full bug fingerprint ("inter|w->r=>s|flow" or
// "sync|var@site") to its group key.
func groupOfFingerprint(fp string) string {
	fp = fuzz.NormalizeFingerprint(fp)
	if strings.HasPrefix(fp, "sync|") {
		return fp
	}
	kind, rest, _ := strings.Cut(fp, "|")
	w, _, _ := strings.Cut(rest, "->")
	return kind + "|" + w
}

// missing lists the expected groups absent from found, sorted.
func missing(expected []string, found map[string]bool) []string {
	var out []string
	for _, g := range expected {
		if !found[g] {
			out = append(out, g)
		}
	}
	sort.Strings(out)
	return out
}
