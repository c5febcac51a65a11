package fuzz

import (
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/targets"
	_ "github.com/pmrace-go/pmrace/internal/targets/cceh"
	_ "github.com/pmrace-go/pmrace/internal/targets/clevel"
	_ "github.com/pmrace-go/pmrace/internal/targets/fastfair"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
	_ "github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// Shadow labels name events of the taint table that wrote them. The
// checkpoint's labels come from the Setup environment's table, which no
// execution shares, so a pool restored from the checkpoint — fully, or
// line by line after an execution labelled words — must carry none.
func TestCheckpointCarriesNoTaintLabels(t *testing.T) {
	for _, name := range targets.Names() {
		t.Run(name, func(t *testing.T) {
			f := func() targets.Target {
				tgt, err := targets.New(name)
				if err != nil {
					t.Fatal(err)
				}
				return tgt
			}
			x := NewExecutor(f, ExecOptions{UseCheckpoints: true})
			snap, err := x.checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			p := pmem.NewFromSnapshot(snap)
			assertUnlabelled(t, "full restore", p)
			p.SetShadowLabel(0, p.Size(), 7)
			p.Restore(snap)
			assertUnlabelled(t, "dirty-line restore", p)
		})
	}
}

func assertUnlabelled(t *testing.T, how string, p *pmem.Pool) {
	t.Helper()
	for a := pmem.Addr(0); a < p.Size(); a += pmem.WordSize {
		if l := p.ShadowLabel(a); l != 0 {
			t.Fatalf("%s: word %#x carries label %d", how, a, l)
		}
	}
}
