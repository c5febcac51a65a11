package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// samples is one metric's repeated measurements within a run.
type samples []float64

// quartiles returns the first quartile, median and third quartile with the
// same "exclusive" method as Python's statistics.quantiles(n=4), so the
// spread a run reports reads the same as the one computed over runs.
func (s samples) quartiles() (q1, med, q3 float64) {
	if len(s) == 0 {
		return 0, 0, 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	at := func(p float64) float64 {
		// Position p*(n+1) in 1-based order, clamped to the sample range.
		m := p * float64(len(v)+1)
		j := int(m)
		if j < 1 {
			return v[0]
		}
		if j >= len(v) {
			return v[len(v)-1]
		}
		return v[j-1] + (m-float64(j))*(v[j]-v[j-1])
	}
	return at(0.25), median(v), at(0.75)
}

func (s samples) median() float64 { _, m, _ := s.quartiles(); return m }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1).
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	i := int(p*float64(len(v))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance describes the host and the code a result was measured on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	CPUModel   string `json:"cpu_model"`
}

func hostProvenance(root string) provenance {
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without invoking git; a checkout exported without its
// .git directory reports "unknown" and is identified by sourceHash instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == name {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file of the checkout, so two
// results can be matched to identical code even without a commit.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
