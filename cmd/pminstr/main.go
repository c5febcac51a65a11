// Command pminstr generates an instrumented shadow package from a plain
// pmplain-dialect package: every persistent-memory access is rewritten into
// the corresponding rt.Thread hook call with taint labels threaded through,
// preserving line numbers so the shadow target's file:line bug fingerprints
// name lines of the plain source. See DESIGN.md §15.
//
// Usage:
//
//	pminstr -src <dir> [-out <dir>] [-pkg <name>] [-prefix pminstr_] [-diff] [-check]
//
// -src is the plain package directory (relative to the module root). -out
// defaults to a sibling directory named after -pkg; -pkg defaults to the
// source package name with a "gen" suffix. With -diff, nothing is written:
// the regenerated output is compared against the files already in -out and
// any drift is an error (CI uses this). With -check, pmvet's analyzers run
// over the output package and any finding is an error — generated
// instrumentation is required to be pmvet-clean.
//
// Exit status: 0 success, 1 drift or findings, 2 usage or analysis errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/pmrace-go/pmrace/internal/instr"
	"github.com/pmrace-go/pmrace/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		src    = flag.String("src", "", "plain package directory (required)")
		out    = flag.String("out", "", "output directory (default: sibling of -src named after -pkg)")
		pkg    = flag.String("pkg", "", "generated package name (default: source package name + \"gen\")")
		prefix = flag.String("prefix", instr.ShadowFilePrefix, "generated file name prefix")
		diff   = flag.Bool("diff", false, "compare against existing output instead of writing; drift is an error")
		check  = flag.Bool("check", false, "run pmvet's analyzers over the output package; findings are errors")
		quiet  = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()
	if *src == "" {
		fmt.Fprintln(os.Stderr, "pminstr: -src is required")
		return 2
	}

	// The source importer resolves imports through the go command from the
	// working directory's module — anchor at the module root.
	if err := chdirModuleRoot(); err != nil {
		fmt.Fprintf(os.Stderr, "pminstr: %v\n", err)
		return 2
	}
	module, err := modulePath("go.mod")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pminstr: %v\n", err)
		return 2
	}

	srcRel := filepath.ToSlash(filepath.Clean(*src))
	loader := lint.NewLoader()
	pkgIn, err := loader.LoadDir(filepath.Clean(*src), module+"/"+srcRel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pminstr: loading %s: %v\n", *src, err)
		return 2
	}
	pkgName := *pkg
	if pkgName == "" {
		pkgName = pkgIn.Types.Name() + "gen"
	}
	outDir := *out
	if outDir == "" {
		outDir = filepath.Join(filepath.Dir(filepath.Clean(*src)), pkgName)
	}

	files, err := instr.Generate(pkgIn, instr.Options{PkgName: pkgName, FilePrefix: *prefix})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pminstr: %v\n", err)
		return 2
	}

	status := 0
	if *diff {
		for _, f := range files {
			path := filepath.Join(outDir, f.Name)
			have, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pminstr: %s: %v (regenerate with: pminstr -src %s -out %s -pkg %s)\n", path, err, *src, outDir, pkgName)
				status = 1
				continue
			}
			if !bytes.Equal(have, f.Src) {
				fmt.Fprintf(os.Stderr, "pminstr: %s is stale: regenerated output differs (rerun pminstr and commit)\n", path)
				status = 1
			}
		}
		if status == 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "pminstr: %d generated files match %s\n", len(files), outDir)
		}
	} else {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "pminstr: %v\n", err)
			return 2
		}
		for _, f := range files {
			path := filepath.Join(outDir, f.Name)
			if err := os.WriteFile(path, f.Src, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "pminstr: %v\n", err)
				return 2
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "pminstr: wrote %s\n", path)
			}
		}
	}

	if *check {
		outRel := filepath.ToSlash(filepath.Clean(outDir))
		pkgOut, err := loader.LoadDir(filepath.Clean(outDir), module+"/"+outRel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pminstr: loading generated package: %v\n", err)
			return 2
		}
		findings, err := lint.Run([]*lint.Package{pkgOut}, lint.Analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pminstr: %v\n", err)
			return 2
		}
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "pminstr: generated code must be pmvet-clean: %d findings\n", len(findings))
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "pminstr: pmvet clean (%d analyzers)\n", len(lint.Analyzers()))
		}
	}
	return status
}

// modulePath reads the module path from go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
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
			return fmt.Errorf("no go.mod found above the working directory; run pminstr from inside the module")
		}
		dir = parent
	}
}
