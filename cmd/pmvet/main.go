// Command pmvet statically checks hand-instrumented PM code for
// instrumentation-completeness: unflushed stores, raw pool accesses that
// bypass the rt hook API, dropped taint labels, and fence-pairing mistakes.
// It is the compile-time companion of the dynamic detectors — see
// DESIGN.md §11.
//
// Usage:
//
//	pmvet [flags] [packages]
//
// Packages default to ./internal/targets/... ./examples/... — the
// instrumented workload code pmvet's rules are written for. Exit status is
// 0 for no findings, 1 for findings, 2 for analysis errors (mirroring
// cmd/pmrace's bug/error split).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/pmrace-go/pmrace/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		include = flag.String("include", "", "comma-separated analyzer names to run (default: all)")
		exclude = flag.String("exclude", "", "comma-separated analyzer names to skip")
		jsonOut = flag.Bool("json", false, "emit findings as JSON instead of text")
		list    = flag.Bool("list", false, "list registered analyzers and exit")
		quiet   = flag.Bool("q", false, "suppress the per-package progress line")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	// The source importer resolves module imports through the go command,
	// which consults the working directory's module — anchor at the module
	// root so pmvet works from any subdirectory.
	if err := chdirModuleRoot(); err != nil {
		fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
		return 2
	}

	analyzers, err := lint.ByName(*include)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
		return 2
	}
	if *exclude != "" {
		skip, err := lint.ByName(*exclude)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
			return 2
		}
		skipped := map[string]bool{}
		for _, a := range skip {
			skipped[a.Name] = true
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if !skipped[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/targets/...", "./examples/..."}
	}

	loader := lint.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
		return 2
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "pmvet: %d analyzers over %d packages\n", len(analyzers), len(pkgs))
	}

	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "pmvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "pmvet: %d findings\n", len(findings))
		}
		return 1
	}
	return 0
}

// chdirModuleRoot walks up from the working directory to the nearest go.mod
// and chdirs there.
func chdirModuleRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return fmt.Errorf("no go.mod found above the working directory; run pmvet from inside the module")
		}
		dir = parent
	}
}
