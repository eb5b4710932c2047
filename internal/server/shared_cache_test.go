package server

// Shared-cache acceptance tests (run under -race in CI): instances sharing
// one cache directory must serve identical results with exactly one cold
// learning run between them, and racing instances must converge on one
// disk artifact.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
)

// startShared starts k instances over one cache directory. Each has its
// own store, pool and metrics registry, as k daemon processes started
// with the same -cache-dir would; the disk is their only coupling.
func startShared(t *testing.T, k int) (string, []*Server, []*httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	srvs := make([]*Server, k)
	tss := make([]*httptest.Server, k)
	for i := range srvs {
		cfg := Config{}
		cfg.Store.Dir = dir
		srvs[i] = New(cfg)
		tss[i] = httptest.NewServer(srvs[i])
		t.Cleanup(tss[i].Close)
	}
	return dir, srvs, tss
}

// totalLearns sums the learning runs executed across the instances.
func totalLearns(srvs []*Server) int64 {
	var n int64
	for _, srv := range srvs {
		n += srv.Store().Stats().Learns
	}
	return n
}

// diskArtifacts counts the learning artifacts persisted in the shared
// directory (one .imply file per artifact, whichever instance saved it).
func diskArtifacts(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.imply"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestSharedCacheOneColdLearn: warm through instance A, then ask B — B
// must serve the identical artifact from the shared disk without
// learning, and report it as a peer's artifact.
func TestSharedCacheOneColdLearn(t *testing.T) {
	dir, srvs, tss := startShared(t, 2)
	body := benchText(t, gen.MustBuild("s510jcsrre"))
	q := LearnParams{Workers: 1}.Query()

	cold := post[LearnResponse](t, tss[0], "/v1/learn", q, body)
	if cold.Cache != "miss" {
		t.Fatalf("cold learn on A: %+v", cold)
	}
	warm := post[LearnResponse](t, tss[1], "/v1/learn", q, body)
	if warm.Cache != "disk" {
		t.Fatalf("B should load A's artifact from the shared dir: %+v", warm)
	}
	if warm.Fingerprint != cold.Fingerprint || warm.Relations != cold.Relations ||
		warm.CombTies != cold.CombTies || warm.SeqTies != cold.SeqTies ||
		warm.EquivClasses != cold.EquivClasses {
		t.Fatalf("instances disagree:\nA %+v\nB %+v", cold, warm)
	}

	if n := totalLearns(srvs); n != 1 {
		t.Fatalf("learning runs across instances = %d, want exactly 1", n)
	}
	bst := srvs[1].Store().Stats()
	if bst.DiskHits != 1 || bst.PeerDiskHits != 1 {
		t.Fatalf("B disk stats = hits %d peer %d, want 1/1", bst.DiskHits, bst.PeerDiskHits)
	}
	if n := diskArtifacts(t, dir); n != 1 {
		t.Fatalf("disk artifacts = %d, want 1", n)
	}
}

// TestSharedCacheColdRaceOneArtifact: both instances hit with the same
// cold circuit at once. Each instance may have to learn (there is no
// cross-process singleflight — the disk is the only coupling), but the
// results must be identical and the shared directory must end up with
// exactly one artifact.
func TestSharedCacheColdRaceOneArtifact(t *testing.T) {
	dir, srvs, tss := startShared(t, 2)
	body := benchText(t, gen.MustBuild("s510jcsrre"))
	u := "/v1/learn?" + LearnParams{Workers: 1}.Query().Encode()

	const perInstance = 4
	results := make([]LearnResponse, 2*perInstance)
	errs := make([]error, 2*perInstance)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(tss[i%2].URL+u, "text/plain", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			errs[i] = json.Unmarshal(data, &results[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i, r := range results[1:] {
		if r.Fingerprint != results[0].Fingerprint || r.Relations != results[0].Relations ||
			r.CombTies != results[0].CombTies || r.SeqTies != results[0].SeqTies {
			t.Fatalf("response %d differs: %+v vs %+v", i+1, r, results[0])
		}
	}

	// Per-instance singleflight caps each instance at one learn; the
	// atomic-rename discipline caps the disk at one artifact.
	if n := totalLearns(srvs); n < 1 || n > 2 {
		t.Fatalf("learning runs across instances = %d, want 1 or 2", n)
	}
	if n := diskArtifacts(t, dir); n != 1 {
		t.Fatalf("disk artifacts = %d, want exactly 1", n)
	}
}
