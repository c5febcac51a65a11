package obs

import (
	"encoding/json"
	"fmt"
)

// DecodeEvent unmarshals the payload of a JSONL or SSE envelope back into
// its typed event, keyed by the envelope's kind. It is the inverse of the
// `data` field Envelope serializes, letting consumers of SSE event streams
// and of trace files rebuild the same typed stream Campaign.Events delivers
// in-process (modulo the Seq/At stamps, which the envelope carries
// separately).
func DecodeEvent(kind Kind, data []byte) (Event, error) {
	var ev Event
	switch kind {
	case KindPhaseChange:
		ev = &PhaseChange{}
	case KindExecDone:
		ev = &ExecDone{}
	case KindSeedAccepted:
		ev = &SeedAccepted{}
	case KindInterleavingScheduled:
		ev = &InterleavingScheduled{}
	case KindInconsistencyFound:
		ev = &InconsistencyFound{}
	case KindValidationVerdict:
		ev = &ValidationVerdict{}
	case KindBugConfirmed:
		ev = &BugConfirmed{}
	case KindCampaignDone:
		ev = &CampaignDone{}
	default:
		return nil, fmt.Errorf("obs: unknown event kind %q", kind)
	}
	if err := json.Unmarshal(data, ev); err != nil {
		return nil, fmt.Errorf("obs: decoding %s event: %w", kind, err)
	}
	return ev, nil
}
