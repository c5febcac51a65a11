package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// bundleRef is one on-disk bundle located by GC.
type bundleRef struct {
	path string
	mod  time.Time
}

// GC enforces a retention budget over every bundle below root: when more
// than retain bundles exist, the oldest (by bug.json modification time,
// ties broken by path) are deleted until the budget holds, and empty
// campaign directories left behind are removed. A bundle is any directory
// up to two levels below root containing bug.json — both a campaign's flat
// artifact directory (root/0001-inter) and the pmraced layout
// (root/<campaign-id>/0001-inter) are covered. retain <= 0 disables GC.
// The removed bundle paths are returned.
//
// Two rules keep GC from racing an in-flight Writer on the same tree:
// dot-prefixed directories (the Writer's stage-then-rename temp dirs) are
// never touched, and bundles whose bug.json is younger than grace are
// exempt from the budget — a bundle that just landed must stay fetchable
// at least that long, even when an older campaign's GC pass runs over the
// shared root moments later.
func GC(root string, retain int, grace time.Duration) ([]string, error) {
	if retain <= 0 {
		return nil, nil
	}
	bundles, err := findBundles(root, 2)
	if err != nil || len(bundles) <= retain {
		return nil, err
	}
	if grace > 0 {
		cutoff := time.Now().Add(-grace)
		aged := bundles[:0]
		for _, b := range bundles {
			if b.mod.Before(cutoff) {
				aged = append(aged, b)
			}
		}
		// Bundles inside the grace window still occupy budget — they are
		// only exempt from removal — so the excess shrinks accordingly.
		excess := len(bundles) - retain
		if excess > len(aged) {
			excess = len(aged)
		}
		bundles = aged
		retain = len(bundles) - excess
	}
	if len(bundles) <= retain {
		return nil, nil
	}
	sort.Slice(bundles, func(i, j int) bool {
		if !bundles[i].mod.Equal(bundles[j].mod) {
			return bundles[i].mod.Before(bundles[j].mod)
		}
		return bundles[i].path < bundles[j].path
	})
	var removed []string
	for _, b := range bundles[:len(bundles)-retain] {
		if err := os.RemoveAll(b.path); err != nil {
			return removed, fmt.Errorf("artifact: gc removing %s: %w", b.path, err)
		}
		removed = append(removed, b.path)
		// Drop the parent campaign directory when the bundle was its last
		// content (os.Remove refuses non-empty directories).
		if parent := filepath.Dir(b.path); parent != filepath.Clean(root) {
			_ = os.Remove(parent)
		}
	}
	return removed, nil
}

// findBundles walks up to depth levels below root collecting bundles (see
// bundleBug). A missing root yields no bundles.
func findBundles(root string, depth int) ([]bundleRef, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: gc reading %s: %w", root, err)
	}
	var out []bundleRef
	for _, e := range entries {
		dir := filepath.Join(root, e.Name())
		if fi, ok := bundleBug(root, e); ok {
			out = append(out, bundleRef{path: dir, mod: fi.ModTime()})
			continue
		}
		// A staging area holds no bundle directories, so descending into
		// one finds nothing.
		if depth > 1 && e.IsDir() {
			sub, err := findBundles(dir, depth-1)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
	}
	return out, nil
}
