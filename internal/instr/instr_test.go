package instr_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pmrace-go/pmrace/internal/instr"
	"github.com/pmrace-go/pmrace/internal/lint"
)

// sharedLoader is reused across tests so dependency packages (rt, pmem,
// taint, ...) are type-checked from source once, not once per test.
var sharedLoader = lint.NewLoader()

const modulePath = "github.com/pmrace-go/pmrace"

// loadRel loads the package at the repo-relative path rel (the test runs
// with internal/instr as its working directory).
func loadRel(t *testing.T, rel string) *lint.Package {
	t.Helper()
	dir := filepath.Join("..", "..", filepath.FromSlash(rel))
	pkg, err := sharedLoader.LoadDir(dir, modulePath+"/"+rel)
	if err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
	return pkg
}

// TestGenerateReproducesCheckedInShadow is the golden test: running the
// generator over internal/targets/pclhtplain must reproduce the checked-in
// internal/targets/pclht package byte for byte. If this fails after an
// intentional generator or plain-source change, regenerate with
//
//	go run ./cmd/pminstr -src internal/targets/pclhtplain -out internal/targets/pclht -pkg pclht
func TestGenerateReproducesCheckedInShadow(t *testing.T) {
	pkg := loadRel(t, "internal/targets/pclhtplain")
	files, err := instr.Generate(pkg, instr.Options{PkgName: "pclht"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(files) != 1 {
		t.Fatalf("generated %d files, want 1", len(files))
	}
	f := files[0]
	if f.Name != "pminstr_pclht.go" {
		t.Fatalf("generated file name %q, want %q", f.Name, "pminstr_pclht.go")
	}
	want, err := os.ReadFile(filepath.Join("..", "targets", "pclht", f.Name))
	if err != nil {
		t.Fatalf("reading checked-in generated code: %v", err)
	}
	if !bytes.Equal(f.Src, want) {
		t.Errorf("generated %s drifts from the checked-in copy; regenerate internal/targets/pclht with cmd/pminstr", f.Name)
	}
}

// TestGeneratePreservesHookLines checks the generator's load-bearing layout
// property: every PM hook call sits on the same line in the shadow as in the
// plain source, so site IDs (base file + line) agree modulo the file prefix.
func TestGeneratePreservesHookLines(t *testing.T) {
	plain, err := os.ReadFile(filepath.Join("..", "targets", "pclhtplain", "pclht.go"))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := os.ReadFile(filepath.Join("..", "targets", "pclht", "pminstr_pclht.go"))
	if err != nil {
		t.Fatal(err)
	}
	pl := strings.Split(string(plain), "\n")
	gl := strings.Split(string(gen), "\n")
	if len(pl) != len(gl) {
		t.Fatalf("line counts differ: plain %d, generated %d", len(pl), len(gl))
	}
	hooks := []string{
		"t.Load64(", "t.LoadBytes(", "t.Store64(", "t.StoreBytes(",
		"t.NTStore64(", "t.NTStoreBytes(", "t.CAS64(",
		"t.Flush(", "t.Persist(", "t.Fence(",
		"t.SpinLock(", "t.SpinUnlock(", "t.LockMutex(", "t.UnlockMutex(",
	}
	for i := range pl {
		for _, h := range hooks {
			if strings.Contains(pl[i], h) != strings.Contains(gl[i], h) {
				t.Errorf("line %d: hook %s presence differs\n  plain: %s\n  gen:   %s", i+1, h, pl[i], gl[i])
			}
		}
		if strings.Contains(pl[i], "t.SyncVarHint(") != strings.Contains(gl[i], "AnnotateSyncVar(") {
			t.Errorf("line %d: SyncVarHint not rewritten in place\n  plain: %s\n  gen:   %s", i+1, pl[i], gl[i])
		}
	}
}

// TestGeneratedShadowIsPmvetClean pins the ISSUE's correctness oracle in the
// unit suite: the checked-in generated package must produce zero findings
// from every pmvet analyzer.
func TestGeneratedShadowIsPmvetClean(t *testing.T) {
	pkg := loadRel(t, "internal/targets/pclht")
	findings, err := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("pmvet finding in generated shadow: %s %s:%d %s", f.Analyzer, f.File, f.Line, f.Message)
	}
}

// TestGenerateAugmentsInternalHelpers spot-checks the augmentation fixed
// point on the checked-in shadow: label-returning unexported helpers gain an
// appended taint.Label result, while error-returning ones keep their
// signature untouched.
func TestGenerateAugmentsInternalHelpers(t *testing.T) {
	gen, err := os.ReadFile(filepath.Join("..", "targets", "pclht", "pminstr_pclht.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(gen)
	for _, want := range []string{
		// table's single result derives from a load, so it is augmented and
		// returns the load's label directly (pmem.Addr aliases uint64).
		"func (h *HT) table(t *rt.Thread) (pmem.Addr, taint.Label) {",
		// resize returns only an error: error results never count toward the
		// augmentation decision, so the signature survives unchanged.
		"func (h *HT) resize(t *rt.Thread) error {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated shadow missing %q", want)
		}
	}
	for _, stale := range []string{"pmplain.", "internal/pmplain"} {
		if strings.Contains(src, stale) {
			t.Errorf("generated shadow still references %q", stale)
		}
	}
}

// TestGenerateRejectsUnsupportedPatterns exercises the v1 restrictions:
// constructs outside the supported dialect are hard errors, never silent
// mis-instrumentation.
func TestGenerateRejectsUnsupportedPatterns(t *testing.T) {
	pkg := loadRel(t, "internal/instr/testdata/src/badplain")
	_, err := instr.Generate(pkg, instr.Options{PkgName: "badgen"})
	if err == nil {
		t.Fatal("Generate accepted a package full of unsupported constructs")
	}
	msg := err.Error()
	for _, want := range []string{
		"must be the entire right-hand side of a := binding",       // Nested
		"method Pool has no rt.Thread equivalent",                  // Unsupported
		"must be bound with := so its taint label can be threaded", // PlainAssign
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not mention %q:\n%s", want, msg)
		}
	}
}

// TestGenerateRequiresPackageName pins the minimal-options contract.
func TestGenerateRequiresPackageName(t *testing.T) {
	pkg := loadRel(t, "internal/targets/pclhtplain")
	if _, err := instr.Generate(pkg, instr.Options{}); err == nil {
		t.Fatal("Generate accepted empty Options.PkgName")
	}
}
