package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"

	"github.com/pmrace-go/pmrace/internal/taint"
)

func mkIncon(kind Kind, writeSite, storeSite uint32) *Inconsistency {
	wr, rd := int32(1), int32(2)
	if kind == KindIntra {
		rd = 1
	}
	return &Inconsistency{
		Kind:      kind,
		Event:     taint.Event{Addr: 64, Epoch: 1, WriteSite: writeSite, ReadSite: writeSite + 1, Writer: wr, Reader: rd},
		StoreSite: site.ID(storeSite),
		Count:     1,
	}
}

func TestDBMergeDeduplicates(t *testing.T) {
	db := NewDB()
	j1, new1 := db.MergeInconsistency(mkIncon(KindInter, 10, 20))
	_, new2 := db.MergeInconsistency(mkIncon(KindInter, 10, 20))
	if !new1 || new2 {
		t.Fatalf("first merge new=%v, second new=%v; want true,false", new1, new2)
	}
	if j1.Count != 2 {
		t.Fatalf("count = %d, want 2", j1.Count)
	}
	if len(db.Inconsistencies()) != 1 {
		t.Fatalf("db must hold one record")
	}
}

func TestDBMergeSyncDeduplicates(t *testing.T) {
	db := NewDB()
	si := &SyncInconsistency{Var: SyncVar{Name: "lock"}, Site: 7, Count: 1}
	_, new1 := db.MergeSync(si)
	_, new2 := db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "lock"}, Site: 7, Count: 1})
	_, new3 := db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "lock"}, Site: 8, Count: 1})
	if !new1 || new2 || !new3 {
		t.Fatalf("merge flags = %v %v %v", new1, new2, new3)
	}
	if len(db.Syncs()) != 2 {
		t.Fatalf("syncs = %d, want 2", len(db.Syncs()))
	}
}

func TestDBAddOtherDeduplicates(t *testing.T) {
	db := NewDB()
	if !db.AddOther(OtherFinding{Kind: "hang", Site: 3}) {
		t.Fatalf("first AddOther must be new")
	}
	if db.AddOther(OtherFinding{Kind: "hang", Site: 3}) {
		t.Fatalf("duplicate AddOther must be rejected")
	}
	if !db.AddOther(OtherFinding{Kind: "hang", Site: 4}) {
		t.Fatalf("different site must be new")
	}
	if len(db.Others()) != 2 {
		t.Fatalf("others = %d, want 2", len(db.Others()))
	}
}

func TestUniqueBugsGroupByWriteSite(t *testing.T) {
	db := NewDB()
	// Two inconsistencies with the same dirty write site but different
	// side-effect sites: one unique bug.
	db.MergeInconsistency(mkIncon(KindInter, 10, 20))
	db.MergeInconsistency(mkIncon(KindInter, 10, 21))
	// A different write site: second bug.
	db.MergeInconsistency(mkIncon(KindInter, 11, 22))
	// An intra inconsistency with the same write site is a separate bug
	// (different kind).
	db.MergeInconsistency(mkIncon(KindIntra, 10, 23))
	bugs := db.UniqueBugs()
	if len(bugs) != 3 {
		t.Fatalf("unique bugs = %d, want 3: %+v", len(bugs), bugs)
	}
}

func TestUniqueBugsExcludeFalsePositives(t *testing.T) {
	db := NewDB()
	j1, _ := db.MergeInconsistency(mkIncon(KindInter, 10, 20))
	j2, _ := db.MergeInconsistency(mkIncon(KindInter, 11, 21))
	j3, _ := db.MergeInconsistency(mkIncon(KindInter, 12, 22))
	j1.Status = StatusValidatedFP
	j2.Status = StatusWhitelistedFP
	j3.Status = StatusBug
	bugs := db.UniqueBugs()
	if len(bugs) != 1 {
		t.Fatalf("unique bugs = %d, want 1", len(bugs))
	}
}

func TestUniqueBugsIncludeSync(t *testing.T) {
	db := NewDB()
	db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "lock"}, Site: 7, Count: 1})
	db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "lock"}, Site: 8, Count: 1})
	db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "seg-lock"}, Site: 9, Count: 1})
	bugs := db.UniqueBugs()
	if len(bugs) != 2 {
		t.Fatalf("sync bugs must group by variable: got %d, want 2", len(bugs))
	}
}

func TestTally(t *testing.T) {
	db := NewDB()
	j1, _ := db.MergeInconsistency(mkIncon(KindInter, 10, 20))
	j1.Status = StatusValidatedFP
	j2, _ := db.MergeInconsistency(mkIncon(KindInter, 11, 21))
	j2.Status = StatusWhitelistedFP
	db.MergeInconsistency(mkIncon(KindInter, 12, 22))
	j4, _ := db.MergeInconsistency(mkIncon(KindIntra, 13, 23))
	j4.Status = StatusBug
	js, _ := db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "lock"}, Site: 7, Count: 1})
	js.Status = StatusValidatedFP
	db.MergeSync(&SyncInconsistency{Var: SyncVar{Name: "seg"}, Site: 8, Count: 1})
	db.AddOther(OtherFinding{Kind: "hang", Site: 3})

	c := db.Tally()
	if c.Inter != 3 || c.InterValidated != 1 || c.InterWhitelist != 1 {
		t.Fatalf("inter tallies = %+v", c)
	}
	if c.Intra != 1 || c.Sync != 2 || c.SyncValidated != 1 {
		t.Fatalf("intra/sync tallies = %+v", c)
	}
	if c.InterBugs != 1 || c.IntraBugs != 1 || c.SyncBugs != 1 || c.OtherBugs != 1 {
		t.Fatalf("bug tallies = %+v", c)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusPending:       "pending",
		StatusBug:           "bug",
		StatusValidatedFP:   "validated-fp",
		StatusWhitelistedFP: "whitelisted-fp",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestFormatInconsistency(t *testing.T) {
	in := mkIncon(KindInter, 10, 20)
	in.Stack = []string{"pclht.go:417 Put"}
	j := &JudgedInconsistency{Inconsistency: in, Status: StatusBug}
	out := FormatInconsistency(j)
	for _, want := range []string{"Inter", "bug", "thread 1", "thread 2", "pclht.go:417"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFormatSync(t *testing.T) {
	j := &JudgedSync{
		SyncInconsistency: &SyncInconsistency{
			Var: SyncVar{Name: "bucket-lock", InitVal: 0}, Site: 7,
			OldVal: 0, NewVal: 1, Count: 3, Stack: []string{"pclht.go:429 lock"},
		},
		Status: StatusPending,
	}
	out := FormatSync(j)
	for _, want := range []string{"bucket-lock", "pending", "pclht.go:429"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestInterleaving(t *testing.T) {
	in := mkIncon(KindInter, 10, 20)
	in.Lineage = []taint.Event{
		{Addr: 128, WriteSite: 5, ReadSite: 6, Writer: 3, Reader: 2},
		in.Event,
	}
	in.StoreThread = 2
	in.SideEffect = pmem.Range{Off: 256, Len: 8}
	want := []Access{
		{Seq: 1, Thread: 3, Kind: AccStore, Addr: 128, Site: 5},
		{Seq: 2, Thread: 2, Kind: AccLoad, Addr: 128, Site: 6},
		{Seq: 3, Thread: 1, Kind: AccStore, Addr: 64, Site: 10},
		{Seq: 4, Thread: 2, Kind: AccLoad, Addr: 64, Site: 11},
		{Seq: 5, Thread: 2, Kind: AccStore, Addr: 256, Site: 20},
	}
	if got := in.Interleaving(); !reflect.DeepEqual(got, want) {
		t.Fatalf("inconsistency interleaving:\n got %+v\nwant %+v", got, want)
	}
	si := &SyncInconsistency{Addr: 512, Site: 7, Thread: 4}
	if got := si.Interleaving(); !reflect.DeepEqual(got, []Access{{Seq: 1, Thread: 4, Kind: AccStore, Addr: 512, Site: 7}}) {
		t.Fatalf("sync interleaving = %+v", got)
	}
}
