package main

import (
	"flag"
	"strings"

	"github.com/pmrace-go/pmrace/api"
)

// specFlags binds one flag per campaign-spec field on fs, each defaulting to
// that field's current value in spec, so the local run and `pmrace submit`
// decode the same flags into the same api.CampaignSpec. Artifacts is left to
// the caller: locally -artifacts names a directory, on submit it is a bool.
func specFlags(fs *flag.FlagSet, spec *api.CampaignSpec) {
	fs.StringVar(&spec.Target, "target", spec.Target, "target system to fuzz")
	fs.Var((*lowerFlag)(&spec.Mode), "mode", "exploration: pmrace | delay | none (case-insensitive)")
	fs.IntVar(&spec.Workers, "workers", spec.Workers, "concurrent fuzzing workers (remote: charged against the server's budget)")
	fs.IntVar(&spec.Threads, "threads", spec.Threads, "driver threads per execution (0 = default)")
	fs.IntVar(&spec.MaxExecs, "execs", spec.MaxExecs, "execution budget (0 = default)")
	fs.DurationVar(&spec.Duration, "duration", spec.Duration, "wall-clock budget (0 = default)")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	fs.IntVar(&spec.KeySpace, "key-space", spec.KeySpace, "workload key-space size (0 = default)")
	fs.IntVar(&spec.OpsPerSeed, "ops-per-seed", spec.OpsPerSeed, "operations per generated seed (0 = default)")
	fs.BoolVar(&spec.Protocol, "proto", spec.Protocol, "fuzz through memcached text-protocol byte streams instead of synthetic op vectors")
	fs.IntVar(&spec.MaxCrashStates, "max-crash-states", spec.MaxCrashStates, "crash states validated per finding (1 = the paper's single adversarial image)")
	fs.BoolVar(&spec.EADR, "eadr", spec.EADR, "model battery-backed caches (stores durable at visibility)")
	fs.BoolVar(&spec.ArtifactsAll, "artifacts-all", spec.ArtifactsAll, "with -artifacts: also bundle validated/whitelisted false positives")
	fs.IntVar(&spec.TraceSample, "trace-sample", spec.TraceSample, "record per-exec spans for every Nth execution (0 = default, negative = off)")
}

// lowerFlag is a string flag stored lowercased, so -mode PMRace means pmrace.
type lowerFlag string

func (f *lowerFlag) String() string { return string(*f) }

func (f *lowerFlag) Set(s string) error {
	*f = lowerFlag(strings.ToLower(s))
	return nil
}
