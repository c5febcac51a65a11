package serve_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/serve"
)

// TestFuzzOptions tables the one spec translation: every spec field lands
// on its engine knob, the caller's base knobs pass through, and an
// unknown mode or artifacts_all without artifacts is an error.
func TestFuzzOptions(t *testing.T) {
	full := api.CampaignSpec{
		Target: "pclht", Mode: "delay", Workers: 3, Threads: 2,
		MaxExecs: 77, Duration: 5 * time.Second, Seed: 42,
		KeySpace: 9, OpsPerSeed: 11, Protocol: true, MaxCrashStates: 4,
		InlineValidation: true, EADR: true, NoCheckpoints: true,
		Artifacts: true, ArtifactsAll: true, TraceSample: 3,
	}
	// A spec field this literal leaves zero would pass unchecked.
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("spec field %s is zero in the table's full spec", v.Type().Field(i).Name)
		}
	}
	base := fuzz.Options{
		CorpusDir: "/corpus", ArtifactDir: "/bugs",
		AliasHints:     []fuzz.AliasHint{{Load: "a.go:1", Store: "b.go:2"}},
		ExtraWhitelist: []string{"alloc"}, ValidationWorkers: 5,
		ValidationWallTimeout: time.Second, HangTimeout: time.Millisecond,
		// A spec field overwrites its engine knob, zero or not.
		Workers: 8, Seed: 9,
	}

	tests := []struct {
		name    string
		base    fuzz.Options
		spec    api.CampaignSpec
		want    fuzz.Options
		wantErr bool
	}{
		{name: "zero spec keeps engine defaults", spec: api.CampaignSpec{Target: "pclht"},
			want: fuzz.Options{Mode: fuzz.ModePMAware}},
		{name: "every spec field", spec: full, want: fuzz.Options{
			Mode: fuzz.ModeDelayInj, Workers: 3, Threads: 2,
			MaxExecs: 77, Duration: 5 * time.Second, Seed: 42,
			KeySpace: 9, OpsPerSeed: 11, Protocol: true, MaxCrashStates: 4,
			InlineValidation: true, EADR: true, NoCheckpoints: true,
			ArtifactAll: true,
		}},
		{name: "base knobs survive", base: base, spec: api.CampaignSpec{Target: "pclht", Mode: "none"},
			want: fuzz.Options{
				Mode: fuzz.ModeNone, CorpusDir: "/corpus", ArtifactDir: "/bugs",
				AliasHints:     []fuzz.AliasHint{{Load: "a.go:1", Store: "b.go:2"}},
				ExtraWhitelist: []string{"alloc"}, ValidationWorkers: 5,
				ValidationWallTimeout: time.Second, HangTimeout: time.Millisecond,
			}},
		{name: "bad mode", spec: api.CampaignSpec{Target: "pclht", Mode: "chaotic"}, wantErr: true},
		{name: "artifacts_all without artifacts", base: base,
			spec: api.CampaignSpec{Target: "pclht", ArtifactsAll: true}, wantErr: true},
	}
	for _, tc := range tests {
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
