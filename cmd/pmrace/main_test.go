package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// TestRunUnknownTargetPrefixedOnce: the CLI prints NewCampaign's error as
// it is, so an unknown target reads "pmrace: unknown target ..." with the
// prefix once, and exits 2.
func TestRunUnknownTargetPrefixedOnce(t *testing.T) {
	args, cmdline, stderr := os.Args, flag.CommandLine, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stderr = args, cmdline, stderr }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	defer r.Close()
	os.Args = []string{"pmrace", "-target", "nope"}
	flag.CommandLine = flag.NewFlagSet("pmrace", flag.ContinueOnError)
	os.Stderr = w
	code := run()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read stderr: %v", err)
	}
	msg := string(out)
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.HasPrefix(msg, `pmrace: unknown target "nope"`) || strings.Contains(msg, "pmrace: pmrace:") {
		t.Fatalf("stderr = %q, want one line starting with the prefix once", msg)
	}
}
