package store

import (
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/learn"
)

// flipFS wraps the real filesystem with a switchable total failure — the
// "disk pulled out" scenario, per store instance, without the import cycle
// using internal/chaos from here would create.
type flipFS struct {
	osFS
	failing atomic.Bool
}

func (f *flipFS) err(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: os.ErrClosed}
}

func (f *flipFS) Open(name string) (File, error) {
	if f.failing.Load() {
		return nil, f.err("open", name)
	}
	return f.osFS.Open(name)
}

func (f *flipFS) CreateTemp(dir, pattern string) (File, error) {
	if f.failing.Load() {
		return nil, f.err("createtemp", dir)
	}
	return f.osFS.CreateTemp(dir, pattern)
}

func (f *flipFS) Rename(oldpath, newpath string) error {
	if f.failing.Load() {
		return f.err("rename", newpath)
	}
	return f.osFS.Rename(oldpath, newpath)
}

func (f *flipFS) MkdirAll(path string, perm os.FileMode) error {
	if f.failing.Load() {
		return f.err("mkdir", path)
	}
	return f.osFS.MkdirAll(path, perm)
}

func (f *flipFS) Remove(name string) error {
	if f.failing.Load() {
		return f.err("remove", name)
	}
	return f.osFS.Remove(name)
}

func (f *flipFS) Stat(name string) (fs.FileInfo, error) {
	if f.failing.Load() {
		return nil, f.err("stat", name)
	}
	return f.osFS.Stat(name)
}

func TestCached(t *testing.T) {
	s := New(Options{})
	c := circuits.Figure2()
	art, _, err := s.Learn(c, learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Cached(art.Fingerprint)
	if !ok || got != art {
		t.Fatalf("Cached(%s) = %v, %t; want the learned artifact", art.Fingerprint[:12], got, ok)
	}
	if _, ok := s.Cached("0000000000000000000000000000000000000000000000000000000000000000"); ok {
		t.Fatal("Cached returned an artifact for an unknown fingerprint")
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("Cached hit not counted: %+v", st)
	}
}

// TestPeerDiskHitStats pins the shared-cache observability contract: a
// disk reload of an artifact another instance persisted counts as a peer
// disk hit; reloading your own evicted artifact does not.
func TestPeerDiskHitStats(t *testing.T) {
	dir := t.TempDir()
	c := gen.MustBuild("s382")

	// Instance A learns cold and persists; its stats show no peer traffic.
	a := New(Options{Dir: dir, MaxEntries: 1})
	artA := mustLearn(t, a, c)
	if _, _, _, err := a.ATPG(ATPGRequest{Artifact: artA, Options: atpgOpts(artA)}); err != nil {
		t.Fatal(err)
	}

	// Instance B over the same dir reloads both artifacts A wrote: two
	// peer disk hits, one per cache.
	b := New(Options{Dir: dir})
	artB, src, err := b.Learn(gen.MustBuild("s382"), learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Fatalf("instance B learn source = %v, want disk", src)
	}
	if _, src, _, err := b.ATPG(ATPGRequest{Artifact: artB, Options: atpgOpts(artB)}); err != nil || src != SourceDisk {
		t.Fatalf("instance B atpg source = %v, %v; want disk", src, err)
	}
	stB := b.Stats()
	if stB.PeerDiskHits != 1 || stB.ATPGPeerDiskHits != 1 {
		t.Fatalf("instance B peer disk hits = %d/%d, want 1/1 (stats %+v)",
			stB.PeerDiskHits, stB.ATPGPeerDiskHits, stB)
	}

	// A's own reload after eviction is a disk hit but NOT a peer hit: it
	// wrote the artifact itself.
	if _, _, err := a.Learn(c, learn.Options{SkipComb: true}); err != nil {
		t.Fatal(err) // evicts the first artifact (MaxEntries: 1)
	}
	if _, src, err := a.Learn(c, learn.Options{}); err != nil || src != SourceDisk {
		t.Fatalf("evicted reload source = %v, %v; want disk", src, err)
	}
	stA := a.Stats()
	if stA.DiskHits != 1 || stA.PeerDiskHits != 0 {
		t.Fatalf("instance A disk/peer hits = %d/%d, want 1/0 (stats %+v)",
			stA.DiskHits, stA.PeerDiskHits, stA)
	}
}

// TestDegradeHealIndependently runs two instances over one cache dir with
// independently failing disks: one degrading must not degrade the other,
// and each heals on its own re-probe schedule.
func TestDegradeHealIndependently(t *testing.T) {
	dir := t.TempDir()
	fsA, fsB := &flipFS{}, &flipFS{}
	a := New(Options{Dir: dir, FS: fsA, ReprobeInterval: time.Millisecond})
	b := New(Options{Dir: dir, FS: fsB, ReprobeInterval: time.Millisecond})

	// A degrades on a dead disk but still serves (memory + re-learn).
	fsA.failing.Store(true)
	if _, _, err := a.Learn(circuits.Figure2(), learn.Options{}); err != nil {
		t.Fatalf("degraded instance failed the request: %v", err)
	}
	if !a.Degraded() {
		t.Fatal("instance A did not degrade on a dead disk")
	}
	if b.Degraded() {
		t.Fatal("instance B degraded without touching its disk")
	}

	// B persists over the same dir unaffected by A's failure.
	if _, src, err := b.Learn(circuits.Figure2(), learn.Options{}); err != nil || src != SourceLearned {
		t.Fatalf("instance B source = %v, %v; want fresh learn", src, err)
	}
	if b.Degraded() {
		t.Fatal("instance B degraded while its own disk is healthy")
	}

	// A's disk comes back; the next request after the re-probe window heals
	// it and finds B's artifact on disk — a peer hit through a heal.
	fsA.failing.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	// Each attempt uses a fresh fingerprint: a memory hit would bypass the
	// disk path entirely and never trigger the re-probe.
	for frames := 3; ; frames++ {
		if _, _, err := a.Learn(circuits.Figure2(), learn.Options{MaxFrames: frames}); err != nil {
			t.Fatal(err)
		}
		if !a.Degraded() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance A never healed after its disk recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if a.Degraded() {
		t.Fatal("instance A still degraded after a successful disk operation")
	}
	if _, src, err := a.Learn(gen.MustBuild("s382"), learn.Options{}); err != nil || src != SourceLearned {
		t.Fatalf("healed instance source = %v, %v; want fresh learn with persistence", src, err)
	}
	if _, src, err := b.Learn(gen.MustBuild("s382"), learn.Options{}); err != nil || src != SourceDisk {
		t.Fatalf("instance B should disk-hit the healed A's artifact: %v, %v", src, err)
	}
	if b.Stats().PeerDiskHits != 1 {
		t.Fatalf("B peer disk hits = %d, want 1", b.Stats().PeerDiskHits)
	}
}

// TestConcurrentRequestsDuringReprobeHeal hammers a degraded store with
// concurrent requests exactly while its disk recovers: every request must
// succeed, at most one re-probe per interval runs, and the store ends
// healthy. Run under -race in CI.
func TestConcurrentRequestsDuringReprobeHeal(t *testing.T) {
	dir := t.TempDir()
	ffs := &flipFS{}
	s := New(Options{Dir: dir, FS: ffs, ReprobeInterval: time.Millisecond})

	ffs.failing.Store(true)
	if _, _, err := s.Learn(circuits.Figure2(), learn.Options{}); err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("store did not degrade")
	}
	ffs.failing.Store(false)

	opts := []learn.Options{
		{}, {SkipComb: true}, {SingleNodeOnly: true}, {DisableTies: true},
		{MaxFrames: 3}, {MaxFrames: 4},
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(opts))
	for r := 0; r < rounds; r++ {
		for _, o := range opts {
			wg.Add(1)
			go func(o learn.Options) {
				defer wg.Done()
				if _, _, err := s.Learn(circuits.Figure2(), o); err != nil {
					errs <- err
				}
			}(o)
		}
		time.Sleep(2 * time.Millisecond) // span several re-probe windows
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed during re-probe heal: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	// Fresh fingerprints per attempt: memory hits would never re-probe.
	for frames := 10; s.Degraded(); frames++ {
		if time.Now().After(deadline) {
			t.Fatal("store never healed after the disk recovered")
		}
		time.Sleep(2 * time.Millisecond)
		s.Learn(circuits.Figure2(), learn.Options{MaxFrames: frames})
	}
	// The healed store persists again: a fresh instance warms from disk.
	if _, _, err := s.Learn(circuits.Figure2(), learn.Options{MaxFrames: 99}); err != nil {
		t.Fatal(err)
	}
	if _, src, err := New(Options{Dir: dir}).Learn(circuits.Figure2(), learn.Options{MaxFrames: 99}); err != nil || src != SourceDisk {
		t.Fatalf("post-heal artifact not on disk: %v, %v", src, err)
	}
}
