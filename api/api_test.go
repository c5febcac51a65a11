package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StatePending: false, StateRunning: false, StateDraining: false,
		StateDone: true, StateCancelled: true, StateFailed: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, !want, want)
		}
	}
}

func TestIsCode(t *testing.T) {
	err := error(&Error{StatusCode: 404, Code: CodeNotFound, Message: "no campaign"})
	if !IsCode(err, CodeNotFound) || IsCode(err, CodeConflict) {
		t.Fatalf("IsCode misclassifies %v", err)
	}
	if IsCode(errors.New("plain"), CodeNotFound) {
		t.Fatal("IsCode matched a non-API error")
	}
	if want := "pmraced: no campaign (not_found)"; err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

// TestSpecWireFormat pins the v1 field names: renaming one is a breaking
// change requiring a new version prefix, so this test failing means the
// contract was broken, not that it should be updated casually.
func TestSpecWireFormat(t *testing.T) {
	raw, err := json.Marshal(CampaignSpec{
		Target: "pclht", Mode: "none", Workers: 2, Threads: 1,
		MaxExecs: 10, Duration: time.Second, Seed: 7, KeySpace: 8,
		OpsPerSeed: 4, MaxCrashStates: 2,
		EADR: true, Artifacts: true, ArtifactsAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"target":"pclht"`, `"mode":"none"`, `"workers":2`, `"threads":1`,
		`"max_execs":10`, fmt.Sprintf(`"duration_ns":%d`, time.Second),
		`"seed":7`, `"key_space":8`, `"ops_per_seed":4`,
		`"max_crash_states":2`, `"eadr":true`,
		`"artifacts":true`, `"artifacts_all":true`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("spec wire form missing %s: %s", field, raw)
		}
	}
}
