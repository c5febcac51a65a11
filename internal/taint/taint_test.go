package taint

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func ev(writeSite uint32) Event {
	return Event{Addr: 64, WriteSite: writeSite, ReadSite: writeSite + 100, Writer: 1, Reader: 2}
}

func TestNoneIsEmpty(t *testing.T) {
	tb := NewTable()
	if got := tb.Events(None); got != nil {
		t.Fatalf("Events(None) = %v, want nil", got)
	}
}

func TestLeafRoundTrip(t *testing.T) {
	tb := NewTable()
	l := tb.NewLeaf(ev(7))
	events := tb.Events(l)
	if len(events) != 1 || events[0].WriteSite != 7 {
		t.Fatalf("events = %+v, want one event with write site 7", events)
	}
}

func TestUnionWithNone(t *testing.T) {
	tb := NewTable()
	l := tb.NewLeaf(ev(1))
	if tb.Union(l, None) != l || tb.Union(None, l) != l {
		t.Fatalf("union with None must be identity")
	}
	if tb.Union(None, None) != None {
		t.Fatalf("union of None with itself must be None")
	}
}

func TestUnionIdempotent(t *testing.T) {
	tb := NewTable()
	l := tb.NewLeaf(ev(1))
	if tb.Union(l, l) != l {
		t.Fatalf("union with self must be identity")
	}
}

func TestUnionMemoised(t *testing.T) {
	tb := NewTable()
	a := tb.NewLeaf(ev(1))
	b := tb.NewLeaf(ev(2))
	u1 := tb.Union(a, b)
	u2 := tb.Union(b, a)
	u3 := tb.Union(a, b)
	if u1 != u2 || u1 != u3 {
		t.Fatalf("unions %d %d %d must all be the same label", u1, u2, u3)
	}
}

func TestUnionExpandsToBothEvents(t *testing.T) {
	tb := NewTable()
	a := tb.NewLeaf(ev(1))
	b := tb.NewLeaf(ev(2))
	u := tb.Union(a, b)
	events := tb.Events(u)
	if len(events) != 2 {
		t.Fatalf("events = %+v, want 2", events)
	}
	if events[0].Seq > events[1].Seq {
		t.Fatalf("events must be ordered by sequence")
	}
}

func TestNestedUnionsDeduplicate(t *testing.T) {
	tb := NewTable()
	a := tb.NewLeaf(ev(1))
	b := tb.NewLeaf(ev(2))
	c := tb.NewLeaf(ev(3))
	u1 := tb.Union(a, b)
	u2 := tb.Union(b, c)
	u := tb.Union(u1, u2) // {a,b,c}, with b reachable twice
	if got := len(tb.Events(u)); got != 3 {
		t.Fatalf("expanded events = %d, want 3", got)
	}
}

func TestUnionAll(t *testing.T) {
	tb := NewTable()
	labels := []Label{tb.NewLeaf(ev(1)), None, tb.NewLeaf(ev(2)), tb.NewLeaf(ev(3))}
	u := tb.UnionAll(labels)
	if got := len(tb.Events(u)); got != 3 {
		t.Fatalf("UnionAll events = %d, want 3", got)
	}
	if tb.UnionAll(nil) != None {
		t.Fatalf("UnionAll of nothing must be None")
	}
}

func TestHas(t *testing.T) {
	tb := NewTable()
	u := tb.Union(tb.NewLeaf(ev(1)), tb.NewLeaf(ev(2)))
	if !tb.Has(u, 1) || !tb.Has(u, 2) {
		t.Fatalf("Has must find both write sites")
	}
	if tb.Has(u, 3) {
		t.Fatalf("Has must not find absent write site")
	}
}

func TestInterIntraClassification(t *testing.T) {
	inter := Event{Writer: 1, Reader: 2}
	intra := Event{Writer: 3, Reader: 3}
	if !inter.Inter() {
		t.Fatalf("different threads must classify as inter")
	}
	if intra.Inter() {
		t.Fatalf("same thread must classify as intra")
	}
}

func TestSize(t *testing.T) {
	tb := NewTable()
	if tb.Size() != 0 {
		t.Fatalf("fresh table size = %d, want 0", tb.Size())
	}
	a := tb.NewLeaf(ev(1))
	b := tb.NewLeaf(ev(2))
	tb.Union(a, b)
	tb.Union(a, b) // memoised, no growth
	if tb.Size() != 3 {
		t.Fatalf("size = %d, want 3 (two leaves + one union)", tb.Size())
	}
}

// Property: for arbitrary union trees over a set of leaves, the expansion is
// exactly the set of distinct leaves folded in, regardless of fold order.
func TestUnionSetSemanticsProperty(t *testing.T) {
	f := func(picks []uint8) bool {
		tb := NewTable()
		leaves := make([]Label, 8)
		for i := range leaves {
			leaves[i] = tb.NewLeaf(ev(uint32(i + 1)))
		}
		want := map[uint32]bool{}
		acc := None
		for _, p := range picks {
			l := leaves[int(p)%len(leaves)]
			want[uint32(int(p)%len(leaves))+1] = true
			acc = tb.Union(acc, l)
		}
		got := tb.Events(acc)
		if len(got) != len(want) {
			return false
		}
		for _, e := range got {
			if !want[e.WriteSite] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative and associative at the label level thanks to
// memoisation with ordered keys.
func TestUnionCommutativeAssociativeProperty(t *testing.T) {
	f := func(i, j, k uint8) bool {
		tb := NewTable()
		leaves := make([]Label, 6)
		for n := range leaves {
			leaves[n] = tb.NewLeaf(ev(uint32(n + 1)))
		}
		a := leaves[int(i)%len(leaves)]
		b := leaves[int(j)%len(leaves)]
		c := leaves[int(k)%len(leaves)]
		if tb.Union(a, b) != tb.Union(b, a) {
			return false
		}
		// Associativity holds at the event-set level.
		l1 := tb.Union(tb.Union(a, b), c)
		l2 := tb.Union(a, tb.Union(b, c))
		e1 := tb.Events(l1)
		e2 := tb.Events(l2)
		if len(e1) != len(e2) {
			return false
		}
		for n := range e1 {
			if e1[n].WriteSite != e2[n].WriteSite {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEventsMemoStable: a leaf's and a union's expansion read the same from
// a cold memo and a warm one, and a label allocated after the memo was
// filled expands correctly.
func TestEventsMemoStable(t *testing.T) {
	tb := NewTable()
	a, b, c := tb.NewLeaf(ev(1)), tb.NewLeaf(ev(2)), tb.NewLeaf(ev(3))
	u := tb.Union(tb.Union(c, a), tb.Union(b, a))
	sites := func(evs []Event) []uint32 {
		var out []uint32
		for _, e := range evs {
			out = append(out, e.WriteSite)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		l    Label
		want []uint32
	}{{"leaf", b, []uint32{2}}, {"union", u, []uint32{1, 2, 3}}} {
		cold := sites(tb.Events(tc.l))
		warm := sites(tb.Events(tc.l))
		if !slices.Equal(cold, tc.want) || !slices.Equal(warm, tc.want) {
			t.Errorf("%s: cold %v, warm %v, want %v", tc.name, cold, warm, tc.want)
		}
	}
	later := tb.Union(u, tb.NewLeaf(ev(4)))
	if got := sites(tb.Events(later)); !slices.Equal(got, []uint32{1, 2, 3, 4}) {
		t.Errorf("label allocated after the memo filled: %v, want [1 2 3 4]", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	tb := NewTable()
	done := make(chan Label)
	for g := 0; g < 8; g++ {
		go func(g int) {
			acc := None
			for i := 0; i < 100; i++ {
				l := tb.NewLeaf(ev(uint32(g*1000 + i)))
				acc = tb.Union(acc, l)
				if n := len(tb.Events(acc)); n != i+1 {
					t.Errorf("label expanded to %d events mid-build, want %d", n, i+1)
				}
			}
			done <- acc
		}(g)
	}
	for g := 0; g < 8; g++ {
		l := <-done
		if got := len(tb.Events(l)); got != 100 {
			t.Fatalf("goroutine label expanded to %d events, want 100", got)
		}
	}
}

func BenchmarkUnion(b *testing.B) {
	tb := NewTable()
	a := tb.NewLeaf(ev(1))
	c := tb.NewLeaf(ev(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Union(a, c)
	}
}

// refEvents is the reference expansion: a recursive set walk over the node
// graph in which a child label not allocated before its union counts as
// None, sorted by Seq.
func refEvents(tb *Table, l Label) []Event {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if l == None || int(l) >= len(tb.nodes) {
		return nil
	}
	seen := map[Label]bool{}
	var out []Event
	var visit func(x, limit Label)
	visit = func(x, limit Label) {
		if x == None || x >= limit || seen[x] {
			return
		}
		seen[x] = true
		n := tb.nodes[x]
		if n.l == None && n.r == None {
			out = append(out, n.ev)
			return
		}
		visit(n.l, x)
		visit(n.r, x)
	}
	visit(l, l+1)
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// checkEvents compares Events against the reference for every label,
// visiting them in the given order; the order decides which unions merge
// memoised children and which walk.
func checkEvents(t *testing.T, tb *Table, order []Label) {
	t.Helper()
	for _, l := range order {
		got, want := tb.Events(l), refEvents(tb, l)
		if !slices.Equal(got, want) {
			t.Fatalf("Events(%d) = %d events, reference %d:\n got %v\nwant %v", l, len(got), len(want), got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Seq >= got[i].Seq {
				t.Fatalf("Events(%d) not strictly ordered by Seq at %d: %v", l, i, got)
			}
		}
	}
}

// TestEventsMatchesReferenceWalk: on random label DAGs — long chains,
// diamonds, unions naming labels the table had not allocated yet — Events
// equals the reference set walk whichever labels were expanded first.
func TestEventsMatchesReferenceWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		var labels []Label
		pick := func() Label { return labels[rng.Intn(len(labels))] }
		for i := 0; i < 400; i++ {
			switch r := rng.Intn(10); {
			case len(labels) < 2 || r < 3:
				labels = append(labels, tb.NewLeaf(ev(uint32(rng.Intn(50)))))
			case r < 4:
				// A union naming a label the table has not
				// allocated yet: the later allocation must not
				// join the union's set.
				stale := Label(tb.Size() + 1 + rng.Intn(8))
				labels = append(labels, tb.Union(pick(), stale))
			case r < 5:
				// Diamond: two unions sharing a child, joined.
				a, b, c := pick(), pick(), pick()
				labels = append(labels, tb.Union(tb.Union(a, b), tb.Union(b, c)))
			default:
				labels = append(labels, tb.Union(pick(), pick()))
			}
			if rng.Intn(4) == 0 {
				checkEvents(t, tb, []Label{pick()})
			}
		}
		order := slices.Clone(labels)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		checkEvents(t, tb, append(order, Label(tb.Size()+1)))
	}
}

// TestEventsLongChain: a 2,000-link taint chain — one fresh leaf unioned
// into the running label per link, as an allocator's unflushed bump pointer
// builds — expands correctly when expanded link by link (each link merges
// its parent's set with the new leaf), only at the end (the walk), and in a
// sparse mix of both. The reference walk is quadratic over a chain, so link by
// link only the first 300 links are compared as they are built.
func TestEventsLongChain(t *testing.T) {
	const links = 2000
	for _, every := range []int{1, links, 37} {
		tb := NewTable()
		acc := None
		for i := 0; i < links; i++ {
			acc = tb.Union(acc, tb.NewLeaf(ev(uint32(i))))
			switch {
			case every == 1 && i >= 300:
				tb.Events(acc)
			case (i+1)%every == 0:
				checkEvents(t, tb, []Label{acc})
			}
		}
		checkEvents(t, tb, []Label{acc})
		if n := len(tb.Events(acc)); n != links {
			t.Fatalf("every %d: chain expanded to %d events, want %d", every, n, links)
		}
	}
}
