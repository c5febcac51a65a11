package artifact_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// FuzzArtifactLoad writes arbitrary bytes as a bundle's bug.json and seed and
// loads the directory, as `pmrace -artifact` does with a bundle it did not
// write. Load must never panic. A loaded bundle whose thread count replay
// accepts must decode and split into at most fuzz.MaxThreads driver threads.
func FuzzArtifactLoad(f *testing.F) {
	f.Add([]byte(`{"schema":1,"fingerprint":"inter|a->b=>c|value","kind":"inter","target":"pclht","threads":4}`),
		[]byte("set key000 v\nget key000\n"))
	f.Add([]byte(`{"schema":1,"threads":2}`),
		[]byte("#proto v1 threads=64\n#stream \"get key000\\r\\n\"\n#crash 0 0\n"))
	f.Add([]byte(`{"threads":1000000000}`), []byte("get k\n"))
	f.Add([]byte(`{"schema":99}`), []byte(""))
	f.Add([]byte(`not json`), []byte("get k\n"))
	f.Fuzz(func(t *testing.T, bug, seed []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, artifact.BugFile), bug, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, artifact.SeedFile), seed, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := artifact.Load(dir)
		if err != nil {
			return
		}
		threads := b.Bug.Threads
		if threads < 1 || threads > fuzz.MaxThreads {
			return // fuzz.ReplayArtifact refuses the bundle
		}
		if n := len(workload.Decode(b.Seed, threads).Split()); n > fuzz.MaxThreads {
			t.Fatalf("bundle with threads %d decodes into %d driver threads, above %d", threads, n, fuzz.MaxThreads)
		}
	})
}
