package serve_test

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/serve"
)

// fullSpec sets every spec field; TestFuzzOptions checks that none is left
// zero.
var fullSpec = api.CampaignSpec{
	Target: "pclht", Mode: "delay", Workers: 3, Threads: 2,
	MaxExecs: 77, Duration: 5 * time.Second, Seed: 42,
	KeySpace: 9, OpsPerSeed: 11, Protocol: true, MaxCrashStates: 4,
	EADR:      true,
	Artifacts: true, ArtifactsAll: true, TraceSample: 3,
}

// baseOnly names the engine knobs no spec field sets: the caller's
// directories and whitelist entries, and Figure 9's seed-tier ablation. Any
// other knob must be a spec field, so that every caller runs one engine
// configuration.
var baseOnly = []string{"CorpusDir", "ArtifactDir", "ExtraWhitelist", "DisableSeedTier"}

// baseOptions carries knobs the spec has no field for.
var baseOptions = fuzz.Options{
	CorpusDir: "/corpus", ArtifactDir: "/bugs",
	ExtraWhitelist: []string{"alloc"}, DisableSeedTier: true,
	// A spec field overwrites its engine knob, zero or not.
	Workers: 8, Seed: 9,
}

// fuzzOptionsCases tables the one spec translation: every spec field lands
// on its engine knob, the caller's base knobs pass through, and an unknown
// mode, artifacts_all without artifacts, or threads or ops_per_seed above
// its limit is an error.
var fuzzOptionsCases = []struct {
	name    string
	base    fuzz.Options
	spec    api.CampaignSpec
	want    fuzz.Options
	wantErr bool
}{
	{name: "zero spec keeps engine defaults", spec: api.CampaignSpec{Target: "pclht"},
		want: fuzz.Options{Mode: fuzz.ModePMAware}},
	{name: "every spec field", spec: fullSpec, want: fuzz.Options{
		Mode: fuzz.ModeDelayInj, Workers: 3, Threads: 2,
		MaxExecs: 77, Duration: 5 * time.Second, Seed: 42,
		KeySpace: 9, OpsPerSeed: 11, Protocol: true, MaxCrashStates: 4,
		EADR: true, ArtifactAll: true,
	}},
	{name: "base knobs survive", base: baseOptions, spec: api.CampaignSpec{Target: "pclht", Mode: "none"},
		want: fuzz.Options{
			Mode: fuzz.ModeNone, CorpusDir: "/corpus", ArtifactDir: "/bugs",
			ExtraWhitelist: []string{"alloc"}, DisableSeedTier: true,
		}},
	{name: "bad mode", spec: api.CampaignSpec{Target: "pclht", Mode: "chaotic"}, wantErr: true},
	{name: "artifacts_all without artifacts", base: baseOptions,
		spec: api.CampaignSpec{Target: "pclht", ArtifactsAll: true}, wantErr: true},
	{name: "threads at the limit", spec: api.CampaignSpec{Target: "pclht", Threads: fuzz.MaxThreads},
		want: fuzz.Options{Mode: fuzz.ModePMAware, Threads: fuzz.MaxThreads}},
	{name: "threads over the limit", spec: api.CampaignSpec{Target: "pclht", Threads: fuzz.MaxThreads + 1}, wantErr: true},
	{name: "ops_per_seed at the limit", spec: api.CampaignSpec{Target: "pclht", OpsPerSeed: fuzz.MaxOpsPerSeed},
		want: fuzz.Options{Mode: fuzz.ModePMAware, OpsPerSeed: fuzz.MaxOpsPerSeed}},
	{name: "ops_per_seed over the limit", spec: api.CampaignSpec{Target: "pclht", OpsPerSeed: fuzz.MaxOpsPerSeed + 1}, wantErr: true},
}

func TestFuzzOptions(t *testing.T) {
	// A spec field the full spec leaves zero would pass unchecked.
	v := reflect.ValueOf(fullSpec)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("spec field %s is zero in the table's full spec", v.Type().Field(i).Name)
		}
	}
	// An engine knob the full spec leaves zero has no spec field: it must
	// be a named base-only knob, and every named one must exist.
	full, err := serve.FuzzOptions(fuzz.Options{}, fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	o := reflect.ValueOf(full)
	for i := 0; i < o.NumField(); i++ {
		name := o.Type().Field(i).Name
		if o.Field(i).IsZero() && !slices.Contains(baseOnly, name) {
			t.Errorf("fuzz.Options.%s is set by no spec field and is not base-only", name)
		}
	}
	for _, name := range baseOnly {
		if _, ok := o.Type().FieldByName(name); !ok {
			t.Errorf("base-only knob %s is not a fuzz.Options field", name)
		}
	}
	for _, tc := range fuzzOptionsCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := serve.FuzzOptions(tc.base, tc.spec)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("FuzzOptions = %+v, want an error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("FuzzOptions =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
}

// FuzzCampaignSpec feeds arbitrary bytes through the wire decoding of a
// campaign spec into its engine translation. FuzzOptions must never panic,
// and an accepted spec must bundle every finding only when artifacts are on,
// carry a mode whose spelling parses back to itself, and keep threads and
// ops_per_seed within their limits.
func FuzzCampaignSpec(f *testing.F) {
	for _, tc := range fuzzOptionsCases {
		data, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec api.CampaignSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		o, err := serve.FuzzOptions(fuzz.Options{}, spec)
		if err != nil {
			return
		}
		if o.ArtifactAll && !spec.Artifacts {
			t.Fatalf("spec %+v: ArtifactAll without artifacts", spec)
		}
		if o.Threads > fuzz.MaxThreads || o.OpsPerSeed > fuzz.MaxOpsPerSeed {
			t.Fatalf("spec %+v: accepted threads %d / ops_per_seed %d above the limits", spec, o.Threads, o.OpsPerSeed)
		}
		if m, err := fuzz.ParseMode(o.Mode.Spelling()); err != nil || m != o.Mode {
			t.Fatalf("spec %+v: mode %v spells %q, which parses to %v (%v)",
				spec, o.Mode, o.Mode.Spelling(), m, err)
		}
	})
}
