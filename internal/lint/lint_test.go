package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/pmrace-go/pmrace/internal/lint"
)

// sharedLoader is reused across tests so dependency packages (rt, pmem,
// taint, ...) are type-checked from source once, not once per fixture.
var sharedLoader = lint.NewLoader()

const fixtureModule = "github.com/pmrace-go/pmrace/internal/lint/testdata/src/"

func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	pkg, err := sharedLoader.LoadDir(filepath.Join("testdata", "src", name), fixtureModule+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe matches the analysistest expectation convention used in fixtures:
// a trailing comment `// want `regex“ on the line the diagnostic must hit.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// collectWants maps "file.go:line" to the expected message regexp.
func collectWants(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", e.Name(), line, err)
			}
			wants[fmt.Sprintf("%s:%d", e.Name(), line)] = re
		}
		f.Close()
	}
	return wants
}

// runFixture asserts the analyzer reports exactly the fixture's `// want`
// expectations, at the expected file:line positions.
func runFixture(t *testing.T, analyzerName, fixture string) {
	t.Helper()
	analyzers, err := lint.ByName(analyzerName)
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, fixture)
	findings, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg.Dir)
	matched := map[string]bool{}
	for _, f := range findings {
		site := f.Site()
		re, ok := wants[site]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !re.MatchString(f.Message) {
			t.Errorf("%s: message %q does not match want %q", site, f.Message, re)
		}
		matched[site] = true
	}
	for site, re := range wants {
		if !matched[site] {
			t.Errorf("%s: expected diagnostic matching %q, got none", site, re)
		}
	}
}

func TestUnflushedStore(t *testing.T) { runFixture(t, "unflushed-store", "unflushed") }
func TestMissingHook(t *testing.T)    { runFixture(t, "missing-hook", "missinghook") }
func TestTaintGap(t *testing.T)       { runFixture(t, "taint-gap", "taintgap") }
func TestFencePairing(t *testing.T)   { runFixture(t, "fence-pairing", "fencepair") }

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != 4 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 4, nil", len(all), err)
	}
	two, err := lint.ByName("taint-gap, fence-pairing")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName two = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := lint.ByName("no-such-analyzer"); err == nil {
		t.Fatal("ByName(no-such-analyzer): want error, got nil")
	}
}

// TestTargetsClean pins the triage of this repo's instrumented workloads:
// every true positive pmvet found has been fixed, and every intentional
// (seeded-bug or rebuilt-on-recovery) site carries a //pmvet:ignore
// justification. A regression here means new instrumented code shipped
// with an instrumentation gap.
func TestTargetsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole target tree from source")
	}
	pkgs, err := sharedLoader.Load("./../targets/...", "./../../examples/...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("pmvet finding in shipped target: %s", f)
	}
}
