// Package store is a content-addressed cache of learning artifacts: the
// frozen implication snapshot and tied-gate list produced by one learning
// run, keyed by the SHA-256 fingerprint of the circuit's canonical .bench
// form plus the learning options (Fingerprint). It is the "learn once,
// reuse everywhere" half of the service layer: the paper computes its
// implication database in one cheap preprocessing pass and amortizes it
// across every subsequent ATPG query, and the store extends that
// amortization across requests, processes and daemon restarts.
//
// Three layers, checked in order:
//
//  1. An in-memory LRU of frozen artifacts (immutable, shared by any
//     number of concurrent readers without locks).
//  2. Singleflight: N concurrent requests for the same fingerprint block
//     on one learning run instead of triggering N.
//  3. Optional on-disk persistence (Options.Dir) through the imply
//     serialization format, so a restarted daemon warms from disk instead
//     of re-learning.
package store

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Options configures a Store. The zero value is memory-only with the
// default entry cap.
type Options struct {
	// MaxEntries caps the in-memory LRU (default 64). Evicted artifacts
	// remain on disk when Dir is set.
	MaxEntries int

	// Dir enables on-disk persistence of learned artifacts under the given
	// directory (see disk.go for the layout). Empty disables persistence.
	Dir string

	// FS overrides the filesystem the disk cache talks to (default: the
	// real one). internal/chaos injects faults through this seam.
	FS FS

	// ReprobeInterval bounds how often a degraded (memory-only, see
	// degrade.go) store re-probes the disk to heal itself (default 5s).
	ReprobeInterval time.Duration

	// Metrics is the registry the store's counters and gauges live in, so
	// /v1/stats and /metrics read the same cells and cannot drift. Nil gets
	// a private registry (counters still work, nothing is exported).
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 64
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	if o.ReprobeInterval <= 0 {
		o.ReprobeInterval = 5 * time.Second
	}
}

// Artifact is one cached learning result: everything the ATPG and the
// untestability analyses consume, minus the mutable builder state. An
// artifact is immutable after creation and safe to share across any number
// of concurrent readers.
type Artifact struct {
	Fingerprint string

	// Circuit is the instance the snapshot's node ids refer to. Requests
	// that hit the cache run against this canonical instance rather than
	// their own parse of the same netlist.
	Circuit *netlist.Circuit

	// DB is the frozen implication snapshot.
	DB *imply.Snapshot

	// CombTies and SeqTies are the learned tied gates, sorted by name as
	// learn.Result delivers them.
	CombTies []learn.Tie
	SeqTies  []learn.Tie

	// EquivClasses is the number of verified gate-equivalence classes (0
	// for artifacts reloaded from disk, which persist only relations and
	// ties).
	EquivClasses int

	// LearnDuration is the wall-clock cost of the learning run that
	// produced the artifact (zero when reloaded from disk).
	LearnDuration time.Duration
}

// Ties returns the combinational and sequential ties as one list, the form
// the ATPG consumes.
func (a *Artifact) Ties() []learn.Tie {
	out := make([]learn.Tie, 0, len(a.CombTies)+len(a.SeqTies))
	out = append(out, a.CombTies...)
	return append(out, a.SeqTies...)
}

// Source reports where a Learn call found its artifact.
type Source int

// Artifact sources, from cheapest to most expensive.
const (
	SourceMemory    Source = iota // in-memory LRU hit
	SourceCoalesced               // waited on another request's learning run
	SourceDisk                    // reloaded from the on-disk cache
	SourceLearned                 // a fresh learning run executed
)

// String returns the wire name used in service responses.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "hit"
	case SourceCoalesced:
		return "coalesced"
	case SourceDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries   int   `json:"entries"`    // artifacts currently in memory
	Hits      int64 `json:"hits"`       // in-memory LRU hits
	Coalesced int64 `json:"coalesced"`  // requests that waited on an in-flight run
	DiskHits  int64 `json:"disk_hits"`  // artifacts reloaded from disk
	Misses    int64 `json:"misses"`     // requests that found nothing cached
	Learns    int64 `json:"learns"`     // learning runs actually executed
	Evictions int64 `json:"evictions"`  // LRU evictions
	DiskFails int64 `json:"disk_fails"` // failed disk reads/writes (misses excluded)
	InFlight  int   `json:"in_flight"`  // learning runs executing right now

	// PeerDiskHits counts disk reloads of artifacts this instance did not
	// write — another daemon sharing the cache dir learned them. The
	// cross-instance amortization signal for a shared cache dir.
	PeerDiskHits int64 `json:"peer_disk_hits"`

	// LearnCanceled counts learning runs abandoned mid-flight (client gone
	// or deadline expired); canceled runs are never cached.
	LearnCanceled int64 `json:"learn_canceled"`

	// Degraded reports the disk cache is offline after an I/O failure and
	// the store is serving memory-only (it re-probes periodically and
	// heals itself); Degradations counts how many times it entered that
	// state.
	Degraded     bool  `json:"degraded"`
	Degradations int64 `json:"degradations"`

	// The test-set (ATPG artifact) cache, same shape.
	ATPGEntries      int   `json:"atpg_entries"`
	ATPGHits         int64 `json:"atpg_hits"`
	ATPGCoalesced    int64 `json:"atpg_coalesced"`
	ATPGDiskHits     int64 `json:"atpg_disk_hits"`
	ATPGPeerDiskHits int64 `json:"atpg_peer_disk_hits"`
	ATPGMisses       int64 `json:"atpg_misses"`
	ATPGRuns         int64 `json:"atpg_runs"` // ATPG runs actually executed
	ATPGEvictions    int64 `json:"atpg_evictions"`
	ATPGReuses       int64 `json:"atpg_reuses"`    // runs seeded by another artifact's tests
	ATPGCanceled     int64 `json:"atpg_canceled"`  // runs abandoned mid-flight by their client
	ATPGInFlight     int   `json:"atpg_in_flight"` // ATPG runs executing right now
}

// Store caches learning artifacts by fingerprint. All methods are safe for
// concurrent use.
type Store struct {
	opt Options
	fs  FS

	// Degradation state (degrade.go): degraded flips on the first disk
	// I/O failure and back off when a re-probe succeeds.
	degraded  atomic.Bool
	probeMu   sync.Mutex
	nextProbe time.Time

	// saved records the fingerprints this instance persisted to disk, so a
	// disk reload can be classified as self (our own artifact, evicted or
	// re-requested) or peer (written by another instance sharing the cache
	// dir — the cross-instance amortization signal).
	saved sync.Map // fingerprint -> struct{}

	mu       sync.Mutex
	lru      *list.List // of *entry, most recent first
	byFP     map[string]*list.Element
	inflight map[string]*flight

	// The test-set cache: a second LRU + singleflight over ATPG artifacts
	// (see atpg.go), sharing the mutex and the disk directory.
	atpgLRU      *list.List // of *atpgEntry, most recent first
	atpgByFP     map[string]*list.Element
	atpgInflight map[string]*atpgFlight

	// All counters live in the obs registry (Options.Metrics); /v1/stats
	// reads the same cells /metrics exports, so the two views cannot drift.
	hits, coalesced, diskHits, peerDiskHits, misses, learns, evictions,
	diskFails, learnCanceled, degradations *obs.Counter

	atpgHits, atpgCoalesced, atpgDiskHits, atpgPeerDiskHits, atpgMisses,
	atpgRuns, atpgEvictions, atpgReuses, atpgCanceled *obs.Counter
}

type entry struct {
	fp  string
	art *Artifact
}

// flight is one in-progress learning (or disk-load) run that concurrent
// requests for the same fingerprint wait on.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// New returns a store. When opt.Dir is set, artifacts learned through this
// store are persisted there and future stores (including in later
// processes) warm from it.
func New(opt Options) *Store {
	opt.defaults()
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		opt:          opt,
		fs:           opt.FS,
		lru:          list.New(),
		byFP:         map[string]*list.Element{},
		inflight:     map[string]*flight{},
		atpgLRU:      list.New(),
		atpgByFP:     map[string]*list.Element{},
		atpgInflight: map[string]*atpgFlight{},
	}
	if opt.Dir != "" {
		s.fs = newCountingFS(s.fs, reg)
	}
	s.registerMetrics(reg)
	return s
}

// registerMetrics claims the store's counter and gauge cells in the
// registry. The learn and test-set caches share family names distinguished
// by a cache label, keeping the /metrics catalog compact.
func (s *Store) registerMetrics(reg *obs.Registry) {
	learnL := obs.Label{Key: "cache", Value: "learn"}
	atpgL := obs.Label{Key: "cache", Value: "atpg"}

	hitHelp := "In-memory LRU hits."
	coalHelp := "Requests that waited on an in-flight run for the same fingerprint."
	diskHelp := "Artifacts reloaded from the on-disk cache."
	missHelp := "Requests that found nothing cached."
	evictHelp := "LRU evictions."
	s.hits = reg.Counter("seqlearnd_cache_hits_total", hitHelp, learnL)
	s.coalesced = reg.Counter("seqlearnd_cache_coalesced_total", coalHelp, learnL)
	s.diskHits = reg.Counter("seqlearnd_cache_disk_hits_total", diskHelp, learnL)
	s.misses = reg.Counter("seqlearnd_cache_misses_total", missHelp, learnL)
	s.evictions = reg.Counter("seqlearnd_cache_evictions_total", evictHelp, learnL)
	s.atpgHits = reg.Counter("seqlearnd_cache_hits_total", hitHelp, atpgL)
	s.atpgCoalesced = reg.Counter("seqlearnd_cache_coalesced_total", coalHelp, atpgL)
	s.atpgDiskHits = reg.Counter("seqlearnd_cache_disk_hits_total", diskHelp, atpgL)
	peerHelp := "Disk reloads of artifacts persisted by another instance sharing the cache dir."
	s.peerDiskHits = reg.Counter("seqlearnd_cache_peer_disk_hits_total", peerHelp, learnL)
	s.atpgPeerDiskHits = reg.Counter("seqlearnd_cache_peer_disk_hits_total", peerHelp, atpgL)
	s.atpgMisses = reg.Counter("seqlearnd_cache_misses_total", missHelp, atpgL)
	s.atpgEvictions = reg.Counter("seqlearnd_cache_evictions_total", evictHelp, atpgL)

	s.learns = reg.Counter("seqlearnd_learn_runs_total",
		"Learning runs actually executed (cache misses that went to compute).")
	s.learnCanceled = reg.Counter("seqlearnd_learn_canceled_total",
		"Learning runs abandoned mid-flight by their client or deadline.")
	s.atpgRuns = reg.Counter("seqlearnd_atpg_runs_total",
		"ATPG runs actually executed.")
	s.atpgReuses = reg.Counter("seqlearnd_atpg_reuses_total",
		"ATPG runs seeded by another artifact's test set.")
	s.atpgCanceled = reg.Counter("seqlearnd_atpg_canceled_total",
		"ATPG runs abandoned mid-flight by their client or deadline.")

	s.diskFails = reg.Counter("seqlearnd_disk_fails_total",
		"Failed disk cache reads/writes (misses excluded).")
	s.degradations = reg.Counter("seqlearnd_degradations_total",
		"Times the store entered the memory-only degraded state.")

	reg.GaugeFunc("seqlearnd_store_degraded",
		"1 while the disk cache is offline and the store serves memory-only.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("seqlearnd_cache_entries", "Artifacts currently in memory.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.lru.Len())
		}, learnL)
	reg.GaugeFunc("seqlearnd_cache_entries", "Artifacts currently in memory.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.atpgLRU.Len())
		}, atpgL)
	reg.GaugeFunc("seqlearnd_cache_in_flight", "Runs executing right now.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		}, learnL)
	reg.GaugeFunc("seqlearnd_cache_in_flight", "Runs executing right now.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.atpgInflight))
		}, atpgL)
}

// Learn resolves the artifact for (c, lopt), running at most one learning
// run per fingerprint no matter how many goroutines ask concurrently. The
// returned Source reports how the artifact was obtained.
//
// lopt.Cancel (like every execution knob) is excluded from the
// fingerprint. A canceled run returns ErrCanceled and is never cached;
// coalesced waiters whose own requests are still live take over with a
// fresh run instead of inheriting the abandoner's error.
func (s *Store) Learn(c *netlist.Circuit, lopt learn.Options) (*Artifact, Source, error) {
	// KeepRows inflates the artifact with Table 1 rows no consumer of the
	// store reads, and is excluded from the fingerprint; force it off so
	// the cached artifact is the same either way.
	lopt.KeepRows = false
	fp := Fingerprint(c, lopt)
	for {
		art, src, err := s.learnResolve(fp, c, lopt)
		if errors.Is(err, ErrCanceled) && !chanceled(lopt.Cancel) {
			// The request executing the run lost its client; ours is still
			// here. Take over with a fresh attempt.
			continue
		}
		return art, src, err
	}
}

// learnResolve is the LRU + singleflight layer for one fingerprint.
func (s *Store) learnResolve(fp string, c *netlist.Circuit, lopt learn.Options) (*Artifact, Source, error) {
	s.mu.Lock()
	if el, ok := s.byFP[fp]; ok {
		s.lru.MoveToFront(el)
		s.hits.Inc()
		art := el.Value.(*entry).art
		s.mu.Unlock()
		return art, SourceMemory, nil
	}
	if f, ok := s.inflight[fp]; ok {
		s.coalesced.Inc()
		s.mu.Unlock()
		// A coalesced waiter whose own client disconnects must release its
		// compute slot immediately, not ride out the flight owner's run.
		select {
		case <-f.done:
		case <-lopt.Cancel:
			return nil, SourceCoalesced, ErrCanceled
		}
		if f.err != nil {
			return nil, SourceCoalesced, f.err
		}
		return f.art, SourceCoalesced, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[fp] = f
	s.mu.Unlock()

	art, src, err := s.build(fp, c, lopt)

	s.mu.Lock()
	delete(s.inflight, fp)
	switch {
	case err != nil:
		if errors.Is(err, ErrCanceled) {
			s.learnCanceled.Inc()
		}
	case src == SourceDisk:
		s.diskHits.Inc()
		if _, self := s.saved.Load(fp); !self {
			s.peerDiskHits.Inc()
		}
		s.insertLocked(fp, art)
	default:
		s.misses.Inc()
		s.learns.Inc()
		s.insertLocked(fp, art)
	}
	s.mu.Unlock()

	f.art, f.err = art, err
	close(f.done)
	return art, src, err
}

// build produces the artifact for fp outside the store lock: from disk if
// persisted, otherwise by running learning (and then persisting,
// best-effort). Disk failures downgrade the store to memory-only
// (degrade.go) instead of failing the request.
func (s *Store) build(fp string, c *netlist.Circuit, lopt learn.Options) (*Artifact, Source, error) {
	if s.diskAvailable() {
		art, err := s.loadDisk(fp, c)
		if err == nil {
			return art, SourceDisk, nil
		}
		s.noteDiskError(err)
	}
	lr := learn.Learn(c, lopt)
	if lr.Canceled {
		return nil, SourceLearned, ErrCanceled
	}
	art := &Artifact{
		Fingerprint:   fp,
		Circuit:       c,
		DB:            lr.DB,
		CombTies:      lr.CombTies,
		SeqTies:       lr.SeqTies,
		EquivClasses:  len(lr.EquivClasses),
		LearnDuration: lr.Stats.Duration,
	}
	if s.diskAvailable() {
		if err := s.saveDisk(art); err != nil {
			s.noteDiskError(err)
		} else {
			s.saved.Store(fp, struct{}{})
		}
	}
	return art, SourceLearned, nil
}

// Cached returns the in-memory learning artifact for a fingerprint, if
// resident — the fingerprint fast path: a client that already knows a
// circuit's fingerprint sends just the header, and the server answers from
// memory or asks for the body back (428). Disk is deliberately not
// consulted: the on-disk format stores relations by node name and needs the
// circuit to rebuild, which is exactly the upload the fast path exists to
// skip.
func (s *Store) Cached(fp string) (*Artifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byFP[fp]; ok {
		s.lru.MoveToFront(el)
		s.hits.Inc()
		return el.Value.(*entry).art, true
	}
	return nil, false
}

// insertLocked adds the artifact at the LRU front and evicts from the back
// past MaxEntries. Callers hold s.mu.
func (s *Store) insertLocked(fp string, art *Artifact) {
	if el, ok := s.byFP[fp]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*entry).art = art
		return
	}
	s.byFP[fp] = s.lru.PushFront(&entry{fp: fp, art: art})
	for s.lru.Len() > s.opt.MaxEntries {
		back := s.lru.Back()
		delete(s.byFP, back.Value.(*entry).fp)
		s.lru.Remove(back)
		s.evictions.Inc()
	}
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:      s.lru.Len(),
		Hits:         s.hits.Value(),
		Coalesced:    s.coalesced.Value(),
		DiskHits:     s.diskHits.Value(),
		PeerDiskHits: s.peerDiskHits.Value(),
		Misses:       s.misses.Value(),
		Learns:       s.learns.Value(),
		Evictions:    s.evictions.Value(),
		DiskFails:    s.diskFails.Value(),
		InFlight:     len(s.inflight),

		LearnCanceled: s.learnCanceled.Value(),
		Degraded:      s.degraded.Load(),
		Degradations:  s.degradations.Value(),

		ATPGEntries:      s.atpgLRU.Len(),
		ATPGHits:         s.atpgHits.Value(),
		ATPGCoalesced:    s.atpgCoalesced.Value(),
		ATPGDiskHits:     s.atpgDiskHits.Value(),
		ATPGPeerDiskHits: s.atpgPeerDiskHits.Value(),
		ATPGMisses:       s.atpgMisses.Value(),
		ATPGRuns:         s.atpgRuns.Value(),
		ATPGEvictions:    s.atpgEvictions.Value(),
		ATPGReuses:       s.atpgReuses.Value(),
		ATPGCanceled:     s.atpgCanceled.Value(),
		ATPGInFlight:     len(s.atpgInflight),
	}
}
