package fuzz

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/instr"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
)

// TestShadowFilePrefixMatchesGenerator pins the normalizer's prefix to the
// generator's: if they drift, normalized shadow fingerprints stop naming
// plain-source lines. (fuzz deliberately does not import instr outside
// tests.)
func TestShadowFilePrefixMatchesGenerator(t *testing.T) {
	if ShadowFilePrefix != instr.ShadowFilePrefix {
		t.Fatalf("fuzz.ShadowFilePrefix = %q, instr.ShadowFilePrefix = %q; the two must stay identical", ShadowFilePrefix, instr.ShadowFilePrefix)
	}
}

func TestNormalizeFingerprint(t *testing.T) {
	cases := [][2]string{
		{"inter|pminstr_pclht.go:334->pminstr_pclht.go:164=>pminstr_pclht.go:218|address",
			"inter|pclht.go:334->pclht.go:164=>pclht.go:218|address"},
		{"sync|bucket-lock@pminstr_pclht.go:201", "sync|bucket-lock@pclht.go:201"},
		{"intra|a.go:1->b.go:2=>c.go:3|value", "intra|a.go:1->b.go:2=>c.go:3|value"},
		// A prefix that is not at a token boundary is untouched.
		{"sync|my_pminstr_lock@pminstr_x.go:9", "sync|my_pminstr_lock@x.go:9"},
	}
	for _, c := range cases {
		if got := NormalizeFingerprint(c[0]); got != c[1] {
			t.Errorf("NormalizeFingerprint(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// pclhtSeededGroups are P-CLHT's seeded bug groups, keyed like
// perfbench/expected.json: the paper's unit of counting (§6.2) is every
// inconsistency sharing one non-persisted write site ("inter|<write site>",
// "intra|<write site>"), or every update of one synchronization variable at
// one site ("sync|<var>@<site>"). The sites are lines of the plain source,
// pinned in its package comment.
var pclhtSeededGroups = []string{
	"inter|pclht.go:334",
	"intra|pclht.go:310",
	"sync|bucket-lock@pclht.go:201",
}

// pclhtGroup cuts a normalized fingerprint to its group and reports whether
// the finding is of a seeded class: an inter inconsistency written at :334,
// an intra one written at :310, or any update of bucket-lock.
func pclhtGroup(fp string) (string, bool) {
	kind, rest, _ := strings.Cut(fp, "|")
	if kind == "sync" {
		return fp, strings.HasPrefix(rest, "bucket-lock@")
	}
	write, _, _ := strings.Cut(rest, "->")
	g := kind + "|" + write
	return g, slices.Contains(pclhtSeededGroups, g)
}

// campaignFingerprints runs one campaign against target name and returns
// the normalized fingerprints of every validated bug.
func campaignFingerprints(t *testing.T, name string, seed int64) []string {
	t.Helper()
	fz, err := New(name, Options{
		Threads:    4,
		KeySpace:   12,
		OpsPerSeed: 40,
		MaxExecs:   60,
		Duration:   60 * time.Second,
		Seed:       seed,
		Workers:    2,
	})
	if err != nil {
		t.Fatalf("new %s: %v", name, err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	var fps []string
	for _, j := range res.DB.Inconsistencies() {
		if j.Status == core.StatusBug {
			fps = append(fps, NormalizeFingerprint(artifact.FingerprintInconsistency(j.Inconsistency)))
		}
	}
	for _, j := range res.DB.Syncs() {
		if j.Status == core.StatusBug {
			fps = append(fps, NormalizeFingerprint(artifact.FingerprintSync(j.SyncInconsistency)))
		}
	}
	return fps
}

// TestPCLHTSeededBugs is the behavioural oracle for the generated P-CLHT:
// campaigns on fixed seeds must together confirm every seeded group, and
// every bug they confirm must be of a seeded class. One 60-exec campaign
// occasionally misses a group, so the test takes the union over up to three
// seeds and stops as soon as every group is found.
func TestPCLHTSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("up to three fuzzing campaigns")
	}
	found := map[string]bool{}
	var missing []string
	for _, seed := range []int64{7, 8, 9} {
		fps := campaignFingerprints(t, "pclht", seed)
		t.Logf("seed %d bugs: %v", seed, fps)
		for _, fp := range fps {
			g, ok := pclhtGroup(fp)
			if !ok {
				t.Errorf("seed %d: confirmed bug %s is not of a seeded class", seed, fp)
			}
			found[g] = true
		}
		missing = nil
		for _, g := range pclhtSeededGroups {
			if !found[g] {
				missing = append(missing, g)
			}
		}
		if len(missing) == 0 {
			break
		}
	}
	for _, g := range missing {
		t.Errorf("seeded group %s not confirmed by any campaign", g)
	}
}
