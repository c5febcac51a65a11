package obs

import (
	"testing"
	"time"
)

// allKindsEvents returns one event of every kind, ending with the terminal
// CampaignDone, mirroring a miniature campaign.
func allKindsEvents() []Event {
	return []Event{
		&PhaseChange{Phase: "fuzzing", Prev: "init"},
		&SeedAccepted{Origin: "initial", Ops: 10, CorpusSize: 1},
		&ExecDone{Exec: 1, Worker: 0, NewBits: 3, BranchCov: 3, AliasCov: 1, Candidates: 2, Duration: time.Millisecond},
		&InterleavingScheduled{Worker: 0, Addr: 0x40, Priority: 7, Skip: 1},
		&InconsistencyFound{Class: "inter", WriteSite: "a.go:1", ReadSite: "b.go:2", StoreSite: "c.go:3", Flow: "value"},
		&ValidationVerdict{Class: "inter", Status: "bug", Latency: time.Millisecond},
		&BugConfirmed{Class: "inter", Site: "a.go:1", Summary: "dirty read"},
		&CampaignDone{Stats: Stats{Target: "t", Mode: "pmrace", Execs: 1, Seeds: 1, Bugs: 1}},
	}
}

func TestSubscribeExtraIndependence(t *testing.T) {
	em := NewEmitter()
	main := em.Subscribe(64)
	ex1, cancel1 := em.SubscribeExtra(64)
	ex2, cancel2 := em.SubscribeExtra(64)
	defer cancel2()

	events := allKindsEvents()
	for _, ev := range events {
		em.Emit(ev)
	}

	want := make([]string, len(events))
	for i, ev := range events {
		want[i] = Fingerprint(ev)
	}
	check := func(name string, ch <-chan Event) {
		t.Helper()
		for i, w := range want {
			select {
			case ev := <-ch:
				if got := Fingerprint(ev); got != w {
					t.Fatalf("%s event %d: got %q, want %q", name, i, got, w)
				}
			default:
				t.Fatalf("%s: missing event %d", name, i)
			}
		}
		select {
		case ev := <-ch:
			t.Fatalf("%s: unexpected extra event %q", name, Fingerprint(ev))
		default:
		}
	}
	check("main", main)
	check("extra1", ex1)
	check("extra2", ex2)

	// Cancelling detaches and closes the channel; later emits skip it.
	cancel1()
	if _, ok := <-ex1; ok {
		t.Fatal("cancelled extra channel not closed")
	}
	em.Emit(&PhaseChange{Phase: "done", Prev: "fuzzing"})
	select {
	case ev := <-ex2:
		if got := Fingerprint(ev); got != "phase_change done<-fuzzing" {
			t.Fatalf("extra2 after cancel1: got %q", got)
		}
	default:
		t.Fatal("extra2 missed event emitted after cancel1")
	}

	// Close closes every remaining extra; cancel afterwards must not panic.
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	for ev := range ex2 {
		_ = ev // drain the buffered event, then the close
	}
	cancel2()
	cancel1()
}

func TestSubscribeExtraAfterClose(t *testing.T) {
	em := NewEmitter()
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}
	ch, cancel := em.SubscribeExtra(8)
	if _, ok := <-ch; ok {
		t.Fatal("SubscribeExtra after Close returned an open channel")
	}
	cancel()
}

func TestDecodeEventUnknownKind(t *testing.T) {
	if _, err := DecodeEvent(Kind("nope"), []byte(`{}`)); err == nil {
		t.Fatal("DecodeEvent accepted unknown kind")
	}
}
