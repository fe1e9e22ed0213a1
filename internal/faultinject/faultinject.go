// Package faultinject provides named, deterministic fault-injection
// points for chaos testing the service layer. Production code calls
// Fire at well-known sites (journal write, journal replay, deployment
// cache build, handler execution, query latency); the package is inert
// unless a test arms a hook, and the disarmed fast path is a single
// atomic load — no lock, no map lookup, no allocation — so injection
// points can sit on hot paths without cost.
//
// Hooks express every failure mode the chaos suite needs:
//
//   - return an error     → the site fails with that error
//   - panic               → the site panics (exercising recovery paths)
//   - sleep, then nil     → the site is slow (exercising deadlines)
//
// Arm a hook with Set (which returns its own removal function) and
// always disarm — via the returned remover or Reset — before the test
// ends, since hooks are process-global. Helpers Error and Sleep build
// the two common hook shapes; compose anything else inline.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site compiled into production code.
type Point string

// The service layer's injection points.
const (
	// JournalWrite fires inside depjournal.Append, before the record is
	// written. An error makes the append fail as if the disk did.
	JournalWrite Point = "journal-write"
	// JournalReplay fires at the start of the server's startup replay of
	// the deployment journal. A sleeping hook holds the service in its
	// "starting" readiness state.
	JournalReplay Point = "journal-replay"
	// DepcacheBuild fires inside the deployment-cache build function,
	// before the spatial index is constructed.
	DepcacheBuild Point = "depcache-build"
	// Handler fires immediately before a /v1 handler executes, inside
	// the panic-recovery middleware. A panicking hook simulates a
	// handler bug.
	Handler Point = "handler"
	// QueryLatency fires at the top of the query handler's evaluation,
	// after validation. A sleeping hook simulates a pathological slow
	// query for deadline tests.
	QueryLatency Point = "query-latency"
	// JobJournalWrite fires inside every job-journal write (spec, band,
	// and terminal records). An error makes the write fail as if the
	// disk did; the job then runs memory-only and the service reports
	// degraded readiness.
	JobJournalWrite Point = "job-journal-write"
	// JobCompact fires when a terminal job's journal is compacted, after
	// its terminal record was appended and its subscribers were told.
	// An error leaves the uncompacted journal in place (replay accepts
	// it); a blocking hook holds the compaction while the job already
	// reads as terminal.
	JobCompact Point = "job-compact"
	// JobReplay fires at the start of the job manager's startup replay
	// of the per-job journals. An error abandons the replay (the daemon
	// starts with no restored jobs); a sleeping hook holds the service
	// in its "starting" readiness state.
	JobReplay Point = "job-replay"
	// JobBand fires before each job band executes (once per retry
	// attempt). An error fails the attempt — wrap it with
	// experiment.Transient to exercise the bounded-retry path — and a
	// blocking hook holds a job mid-run deterministically.
	JobBand Point = "job-band"
	// JobPanic fires inside the job worker's per-band panic containment,
	// right next to JobBand. A panicking hook simulates a worker bug;
	// the job must fail with a structured error while the daemon keeps
	// serving.
	JobPanic Point = "job-panic"
	// MirrorDrop fires inside each mirror-post attempt, before the HTTP
	// request is sent. An error fails that attempt exactly like a
	// transport error: it consumes one of the bounded retries, and a
	// hook that keeps firing exhausts them so the record is dropped and
	// counted — the sustained-mirror-loss half of the chaos suite.
	MirrorDrop Point = "mirror-drop"
	// DigestFetch fires before the anti-entropy reconciler fetches a
	// peer's digest map. An error skips that peer for the round, as if
	// it were partitioned away.
	DigestFetch Point = "digest-fetch"
	// AntiEntropyApply fires after a chunk of divergent deployments'
	// snapshot is fetched and parsed, before it is applied locally. An
	// error abandons that chunk's repair (it is retried next round),
	// exercising the repair-interrupted path; in the boot round it
	// leaves the replica serving with degraded readiness.
	AntiEntropyApply Point = "antientropy-apply"
)

// hook is an armed hook plus the generation it was installed at, so a
// remover can tell whether its hook is still the live one.
type hook struct {
	fn  func() error
	gen uint64
}

var (
	// armed is the disarmed-path gate: false means every Fire returns
	// nil after one atomic load.
	armed atomic.Bool

	mu    sync.Mutex
	gen   uint64
	hooks map[Point]hook
)

// Fire runs the hook armed at p, if any. With nothing armed anywhere it
// costs one atomic load and returns nil; it never allocates on that
// path. The hook's error (or panic) propagates to the caller.
func Fire(p Point) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	h, ok := hooks[p]
	mu.Unlock()
	if !ok {
		return nil
	}
	return h.fn()
}

// Set arms fn at p, replacing any previous hook there, and returns a
// function that removes exactly this hook (a later Set at the same
// point wins; the stale remover is then a no-op).
func Set(p Point, fn func() error) (remove func()) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[Point]hook)
	}
	gen++
	mine := gen
	hooks[p] = hook{fn: fn, gen: mine}
	armed.Store(true)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if h, ok := hooks[p]; ok && h.gen == mine {
			delete(hooks, p)
		}
		if len(hooks) == 0 {
			armed.Store(false)
		}
	}
}

// Reset disarms every hook, returning the package to its inert state.
// Tests that arm hooks should defer Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = nil
	armed.Store(false)
}

// Armed reports whether any hook is currently armed (for test sanity
// checks).
func Armed() bool { return armed.Load() }

// Error returns a hook that always fails with err.
func Error(err error) func() error {
	return func() error { return err }
}

// Sleep returns a hook that sleeps d and then succeeds — the latency
// fault for deadline tests.
func Sleep(d time.Duration) func() error {
	return func() error {
		time.Sleep(d)
		return nil
	}
}

// FailN returns a hook that fails with err for the first n firings and
// succeeds afterwards — the transient fault for retry tests.
func FailN(err error, n int64) func() error {
	var fired atomic.Int64
	return func() error {
		if fired.Add(1) <= n {
			return err
		}
		return nil
	}
}
