// Package jobs is fvcd's crash-safe asynchronous job subsystem: region
// surveys and θ-sweeps run as durable, resumable, cancellable
// background work instead of inline request/response compute.
//
// A job is split into bands — one grid row at one θ — and each
// completed band's RegionStats is fsynced to a per-job JSONL journal
// before the next band starts (see journal.go for the format). Because
// RegionStats.Merge is exact for any partition of the region, replaying
// the completed bands after a kill -9 and computing only the missing
// ones reproduces the uninterrupted result bit-for-bit.
//
// Robustness contract:
//
//   - a panic inside a band fails only that job (structured *PanicError
//     with the stack); the manager and its other jobs keep running
//   - transient band errors (experiment.ErrTransient, or the policy's
//     own classifier) get bounded retries with capped jittered backoff;
//     panics and cancellation are never retried
//   - the per-kind queue is bounded: Submit fails fast with
//     ErrQueueFull instead of accepting unbounded work
//   - journal-write failure degrades the job to memory-only (JournalErr
//     reports it for /readyz) — results still complete, they just don't
//     survive a restart
//   - terminal jobs are garbage-collected after Config.TTL; a polled id
//     that was collected reports ErrExpired (HTTP 410), distinct from
//     never-existed ErrNotFound (404)
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fullview/internal/backoff"
	"fullview/internal/core"
	"fullview/internal/experiment"
	"fullview/internal/faultinject"
	"fullview/internal/sweep"
)

// Kind names what a job computes.
type Kind string

const (
	// KindSurvey surveys a k×k grid at a single θ.
	KindSurvey Kind = "survey"
	// KindSweep surveys the same k×k grid at each θ in a list.
	KindSweep Kind = "sweep"
)

// Kinds lists every job kind, in a fixed order (metrics registration
// iterates it).
func Kinds() []Kind { return []Kind{KindSurvey, KindSweep} }

// State is a job's lifecycle state: queued → running → one of the
// terminal states done / failed / cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every job state, in a fixed order.
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the durable description of a job — everything needed to
// re-derive its work after a crash. It is journaled verbatim in the
// job-file header.
type Spec struct {
	Kind Kind `json:"kind"`
	// Deployment is the registered deployment id the job surveys.
	Deployment string `json:"deployment"`
	// ThetasPi holds the full-view angles as fractions of π, one per
	// result slot. A survey has exactly one; a sweep one per θ.
	ThetasPi []float64 `json:"thetasPi"`
	// Grid is the side of the k×k sample grid. One band = one grid row
	// at one θ.
	Grid int `json:"grid"`
	// Workers is the intra-band parallelism (0 = executor default).
	Workers int `json:"workers,omitempty"`
	// Version pins the deployment index version the job must run
	// against; a resumed job whose deployment has since mutated fails
	// instead of mixing epochs.
	Version uint64 `json:"version,omitempty"`
}

// Slots is the number of result slots (one RegionStats per θ).
func (s Spec) Slots() int { return len(s.ThetasPi) }

// Bands is the total number of bands: Grid rows per θ slot.
func (s Spec) Bands() int { return len(s.ThetasPi) * s.Grid }

// Slot returns the θ-slot band b belongs to.
func (s Spec) Slot(band int) int { return band / s.Grid }

// Row returns the grid row band b covers within its slot.
func (s Spec) Row(band int) int { return band % s.Grid }

func (s Spec) validate() error {
	switch s.Kind {
	case KindSurvey:
		if len(s.ThetasPi) != 1 {
			return fmt.Errorf("jobs: survey wants exactly one theta, got %d", len(s.ThetasPi))
		}
	case KindSweep:
		if len(s.ThetasPi) == 0 {
			return errors.New("jobs: sweep wants at least one theta")
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q", s.Kind)
	}
	if s.Deployment == "" {
		return errors.New("jobs: spec has no deployment id")
	}
	for _, tp := range s.ThetasPi {
		if !(tp > 0 && tp <= 1) {
			return fmt.Errorf("jobs: thetaPi %v outside (0, 1]", tp)
		}
	}
	if s.Grid <= 0 {
		return fmt.Errorf("jobs: grid %d must be positive", s.Grid)
	}
	if s.Workers < 0 {
		return fmt.Errorf("jobs: workers %d must be non-negative", s.Workers)
	}
	return nil
}

// Result is a finished job's output: one RegionStats per θ slot, each
// the exact merge of that slot's bands in row order — bit-identical to
// a whole-grid SurveyRegion at the same θ.
type Result struct {
	Stats []core.RegionStats `json:"stats"`
}

// BandRunner computes one band of a job. It must be deterministic in
// band (resume depends on re-running only missing bands) and honour ctx.
type BandRunner func(ctx context.Context, band int) (core.RegionStats, error)

// Exec prepares a spec for execution — resolving the deployment,
// building checkers — and returns the job's band runner. It is called
// once per run attempt (fresh after a resume), never at Submit time.
type Exec func(spec Spec) (BandRunner, error)

// PanicError is a panic captured inside a band, converted to an error
// so it fails only its own job.
type PanicError struct {
	Band  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: panic in band %d: %v", e.Band, e.Value)
}

// EventType tags a streamed job event.
type EventType string

const (
	// EventState reports a state transition.
	EventState EventType = "state"
	// EventBand reports one completed band with its partial stats.
	EventBand EventType = "band"
)

// Event is one entry in a job's progress stream.
type Event struct {
	Type      EventType         `json:"type"`
	State     State             `json:"state,omitempty"`
	Band      int               `json:"band"`
	Slot      int               `json:"slot"`
	BandsDone int               `json:"bandsDone"`
	Bands     int               `json:"bands"`
	Stats     *core.RegionStats `json:"stats,omitempty"`
	// ElapsedNS is the band's wall time (band events only; zero on
	// events replayed for bands that completed before a resume).
	ElapsedNS int64  `json:"elapsedNs,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID        string
	Spec      Spec
	State     State
	Bands     int
	BandsDone int
	// Resumed reports that the job was restored from its journal after
	// a restart rather than submitted to this process.
	Resumed bool
	// Durable is false when the job runs memory-only (no state dir, or
	// its journal could not be written).
	Durable  bool
	Err      string
	Result   *Result
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// Sentinel errors mapped to HTTP statuses by the server layer.
var (
	// ErrNotFound reports an id that never existed here.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrExpired reports an id whose terminal job was garbage-collected
	// after Config.TTL.
	ErrExpired = errors.New("jobs: job result expired")
	// ErrQueueFull reports a bounded queue rejecting a Submit.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("jobs: manager closed")
)

// Hooks let the embedding service observe job completion without the
// manager depending on a metrics package.
type Hooks struct {
	// JobDone fires once per job reaching a terminal state, with the
	// wall time from run start (or creation, if it never ran).
	JobDone func(kind Kind, state State, elapsed time.Duration)
	// BandDone fires once per band completed by this process, with the
	// number of sample points the band evaluated and the band's wall
	// time (including retries). Bands restored from the journal on
	// resume do not re-fire — they did no work here.
	BandDone func(kind Kind, points int, elapsed time.Duration)
	// JobCompacted fires once per durable job whose terminal record was
	// appended, after JobDone, with the wall time of compacting its
	// journal to header + terminal record (closing the old handle
	// included), whether or not the compaction succeeded.
	JobCompacted func(kind Kind, elapsed time.Duration)
}

// Config tunes a Manager. The zero value works (memory-only jobs).
type Config struct {
	// Dir is the job-journal directory; empty disables durability.
	Dir string
	// QueueDepth bounds each kind's pending queue (default 64).
	QueueDepth int
	// Concurrency is the number of workers per kind (default 2).
	Concurrency int
	// TTL is how long terminal jobs are retained for polling before
	// garbage collection (default 15m; negative retains forever).
	TTL time.Duration
	// Retry bounds per-band retries of transient errors. A zero
	// MaxAttempts selects the default {3 attempts, 25ms base, 250ms
	// cap}; delays are jittered ±20%.
	Retry experiment.RetryPolicy
	// Throttle inserts a pause after every completed band — a test and
	// ops knob that makes mid-job crashes reproducible.
	Throttle time.Duration
	// Logger receives job-lifecycle and journal-degradation logs
	// (default log.Default()).
	Logger *log.Logger
	// Hooks observe job completion.
	Hooks Hooks
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = experiment.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
			Retryable:   c.Retry.Retryable,
		}
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// job is the manager's internal record of one job.
type job struct {
	id      string
	spec    Spec
	created time.Time

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	// perBand holds the completed bands' stats while the job can still
	// run; a terminal job drops it (a done job's Result holds the merge)
	// and keeps only bandsDone.
	perBand   map[int]core.RegionStats
	bandsDone int
	result    *Result
	errMsg    string
	cancelled bool
	cancel    context.CancelFunc
	resumed   bool
	durable   bool
	file      *jobFile
	path      string
	subs      map[chan Event]struct{}
}

// Manager owns the job table, the per-kind worker pools and bounded
// queues, the journal directory, and the TTL garbage collector.
type Manager struct {
	cfg  Config
	exec Exec

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	gone    map[string]time.Time
	queues  map[Kind]chan *job
	closed  bool
	started bool

	errMu      sync.Mutex
	journalErr error

	inflight  atomic.Int64
	bandsDone atomic.Int64
	resumes   atomic.Int64
	counts    map[Kind]map[State]*atomic.Int64
}

// New builds a Manager. exec is consulted when a job starts running.
// Call Start to begin replay and processing; until then Submit only
// queues.
func New(cfg Config, exec Exec) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: state dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		exec:       exec,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		gone:       make(map[string]time.Time),
		queues:     make(map[Kind]chan *job),
		counts:     make(map[Kind]map[State]*atomic.Int64),
	}
	for _, k := range Kinds() {
		m.queues[k] = make(chan *job, cfg.QueueDepth)
		m.counts[k] = make(map[State]*atomic.Int64)
		for _, s := range States() {
			m.counts[k][s] = new(atomic.Int64)
		}
	}
	return m, nil
}

// Start replays the journal directory — restoring terminal results and
// re-queueing incomplete jobs for resumption — and then launches the
// worker pools and the TTL garbage collector. It is called once, from
// the server's warmup goroutine, so replay cost never delays listening.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()

	var resumed []*job
	if err := faultinject.Fire(faultinject.JobReplay); err != nil {
		// A failed replay abandons the journals (they stay on disk for a
		// later restart) but must not take the daemon down.
		m.cfg.Logger.Printf("fvcd: job replay failed, starting with no restored jobs: %v", err)
	} else if m.cfg.Dir != "" {
		resumed = m.replay()
	}

	for _, k := range Kinds() {
		q := m.queues[k]
		for i := 0; i < m.cfg.Concurrency; i++ {
			m.wg.Add(1)
			go m.worker(q)
		}
	}
	if m.cfg.TTL > 0 {
		m.wg.Add(1)
		go m.gcLoop()
	}

	// Re-queue incomplete jobs oldest-first. The queue may be smaller
	// than the resumed set, so fall back to a blocking send that aborts
	// on shutdown.
	sort.Slice(resumed, func(i, j int) bool { return resumed[i].created.Before(resumed[j].created) })
	for _, j := range resumed {
		m.resumes.Add(1)
		m.bumpState(j.spec.Kind, StateQueued)
		q := m.queues[j.spec.Kind]
		select {
		case q <- j:
		default:
			m.wg.Add(1)
			go func(j *job) {
				defer m.wg.Done()
				select {
				case q <- j:
				case <-m.baseCtx.Done():
				}
			}(j)
		}
	}
}

// replay scans Dir for job journals, restoring each into the job table.
// Corrupt files are quarantined (renamed *.corrupt), terminal jobs past
// TTL are collected immediately, and incomplete jobs are returned for
// re-queueing with their completed bands loaded.
func (m *Manager) replay() (resumed []*job) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		m.cfg.Logger.Printf("fvcd: job replay: %v", err)
		return nil
	}
	now := time.Now()
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), fileSuffix) {
			continue
		}
		path := filepath.Join(m.cfg.Dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			m.cfg.Logger.Printf("fvcd: job replay: read %s: %v", ent.Name(), err)
			continue
		}
		hdr, bands, term, good, err := parseJob(data)
		if err != nil {
			m.cfg.Logger.Printf("fvcd: job replay: quarantining %s: %v", ent.Name(), err)
			if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
				m.cfg.Logger.Printf("fvcd: job replay: quarantine failed: %v", rerr)
			}
			continue
		}
		j := &job{
			id:        hdr.ID,
			spec:      hdr.Spec,
			created:   time.Unix(0, hdr.CreatedNS),
			perBand:   bands,
			bandsDone: len(bands),
			durable:   true,
			path:      path,
			subs:      make(map[chan Event]struct{}),
		}
		m.mu.Lock()
		if _, dup := m.jobs[hdr.ID]; dup {
			m.mu.Unlock()
			continue
		}
		if term != nil {
			j.state = term.State
			j.errMsg = term.Error
			j.result = term.Result
			j.finished = time.Unix(0, term.FinishedNS)
			// A compacted journal has no band records left; a done job
			// completed every band whatever the file still holds.
			j.perBand = nil
			if term.State == StateDone {
				j.bandsDone = j.spec.Bands()
			}
			if m.cfg.TTL > 0 && now.Sub(j.finished) > m.cfg.TTL {
				m.gone[j.id] = now
				m.mu.Unlock()
				os.Remove(path)
				continue
			}
			m.jobs[j.id] = j
			m.mu.Unlock()
			continue
		}
		jf, err := reopenJobFile(path, hdr, good)
		if err != nil {
			m.cfg.Logger.Printf("fvcd: job replay: %s runs memory-only: %v", hdr.ID, err)
			m.noteJournalErr(err)
		} else {
			j.file = jf
		}
		j.state = StateQueued
		j.resumed = true
		m.jobs[j.id] = j
		m.mu.Unlock()
		resumed = append(resumed, j)
		m.cfg.Logger.Printf("fvcd: job %s resumed: %d/%d bands journaled", j.id, len(bands), j.spec.Bands())
	}
	return resumed
}

// Close stops the workers, abandons running jobs without a terminal
// record (shutdown is not cancellation — they resume on the next
// Start), and closes every open journal handle.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.file != nil {
			j.file.close()
			j.file = nil
		}
		j.mu.Unlock()
	}
}

// Submit validates and enqueues a new job, returning its initial
// snapshot. ErrQueueFull reports a saturated kind queue (retryable);
// ErrClosed a shut-down manager.
func (m *Manager) Submit(spec Spec) (Snapshot, error) {
	if err := spec.validate(); err != nil {
		return Snapshot{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	id := newID()
	for _, taken := m.jobs[id]; taken; _, taken = m.jobs[id] {
		id = newID()
	}
	j := &job{
		id:      id,
		spec:    spec,
		created: time.Now(),
		state:   StateQueued,
		perBand: make(map[int]core.RegionStats),
		subs:    make(map[chan Event]struct{}),
	}
	m.jobs[id] = j
	q := m.queues[spec.Kind]
	m.mu.Unlock()

	if m.cfg.Dir != "" {
		path := filepath.Join(m.cfg.Dir, id+fileSuffix)
		hdr := header{Version: Version, Kind: FileKind, ID: id, CreatedNS: j.created.UnixNano(), Spec: spec}
		jf, err := createJobFile(path, hdr)
		if err != nil {
			// Degrade to memory-only rather than refusing the work; the
			// readiness probe surfaces the journal failure.
			m.noteJournalErr(err)
		} else {
			m.clearJournalErr()
			j.mu.Lock()
			j.file = jf
			j.path = path
			j.durable = true
			j.mu.Unlock()
		}
	}

	select {
	case q <- j:
	default:
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		j.mu.Lock()
		if j.file != nil {
			j.file.remove()
			j.file = nil
		}
		j.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	m.bumpState(spec.Kind, StateQueued)
	return m.snapshot(j), nil
}

// Get returns the job's current snapshot, ErrExpired for a
// garbage-collected id, or ErrNotFound.
func (m *Manager) Get(id string) (Snapshot, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	return m.snapshot(j), nil
}

// Cancel requests cancellation and returns the job's snapshot right
// after the request: a queued job is cancelled synchronously, a running
// one asynchronously (poll until terminal), and cancelling a terminal
// job is an idempotent no-op.
func (m *Manager) Cancel(id string) (Snapshot, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
	case j.state == StateQueued:
		j.cancelled = true
		j.mu.Unlock()
		m.finishJob(j, StateCancelled, "", nil)
	default:
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return m.snapshot(j), nil
}

// Subscribe returns the job's current snapshot plus a channel of its
// further events; the channel is closed when the job reaches a terminal
// state (immediately, for an already-terminal job). Call the returned
// stop function when done listening — slow listeners never block the
// job (events are dropped, not queued unboundedly).
func (m *Manager) Subscribe(id string) (Snapshot, <-chan Event, func(), error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, nil, nil, err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		ch := make(chan Event)
		close(ch)
		return m.snapshot(j), ch, func() {}, nil
	}
	depth := j.spec.Bands() + 16
	if depth > 1024 {
		depth = 1024
	}
	ch := make(chan Event, depth)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	stop := func() {
		j.mu.Lock()
		if j.subs != nil {
			delete(j.subs, ch)
		}
		j.mu.Unlock()
	}
	return m.snapshot(j), ch, stop, nil
}

// JournalErr reports the latest job-journal write/replay failure, nil
// when journaling is healthy. The server's readiness probe maps a
// non-nil value to "degraded".
func (m *Manager) JournalErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.journalErr
}

// StateCount returns the number of jobs that have entered the given
// state (monotonic; backs fvcd_jobs_total{kind,state}).
func (m *Manager) StateCount(kind Kind, state State) int64 {
	return m.counts[kind][state].Load()
}

// Inflight returns the number of currently running jobs.
func (m *Manager) Inflight() int64 { return m.inflight.Load() }

// BandsDone returns the total number of bands completed (monotonic).
func (m *Manager) BandsDone() int64 { return m.bandsDone.Load() }

// Resumes returns the number of jobs resumed from journals (monotonic;
// backs fvcd_job_resume_total).
func (m *Manager) Resumes() int64 { return m.resumes.Load() }

func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	if _, ok := m.gone[id]; ok {
		return nil, ErrExpired
	}
	return nil, ErrNotFound
}

func (m *Manager) snapshot(j *job) Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:        j.id,
		Spec:      j.spec,
		State:     j.state,
		Bands:     j.spec.Bands(),
		BandsDone: j.bandsDone,
		Resumed:   j.resumed,
		Durable:   j.durable,
		Err:       j.errMsg,
		Result:    j.result,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
	}
}

func (m *Manager) bumpState(kind Kind, state State) {
	if c, ok := m.counts[kind][state]; ok {
		c.Add(1)
	}
}

// worker drains one kind's queue until shutdown.
func (m *Manager) worker(q chan *job) {
	defer m.wg.Done()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case j := <-q:
			m.runJob(j)
		}
	}
}

// runJob executes every band the journal doesn't already hold, then
// merges the per-band stats into the result. A ctx error routes to
// abandon (cancel vs. shutdown); anything else fails the job.
func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	defer cancel()
	m.bumpState(j.spec.Kind, StateRunning)
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	m.emitState(j, StateRunning)

	runner, err := m.exec(j.spec)
	if err != nil {
		m.finishJob(j, StateFailed, "start job: "+err.Error(), nil)
		return
	}

	bands := j.spec.Bands()
	for band := 0; band < bands; band++ {
		j.mu.Lock()
		_, done := j.perBand[band]
		j.mu.Unlock()
		if done {
			continue
		}
		t0 := time.Now()
		stats, err := m.runBand(ctx, runner, band)
		if err != nil {
			if ctx.Err() != nil {
				m.abandon(j)
				return
			}
			m.finishJob(j, StateFailed, fmt.Sprintf("band %d: %v", band, err), nil)
			return
		}
		m.completeBand(j, band, stats, time.Since(t0))
		if m.cfg.Throttle > 0 {
			select {
			case <-ctx.Done():
				m.abandon(j)
				return
			case <-time.After(m.cfg.Throttle):
			}
		}
	}
	m.finishJob(j, StateDone, "", m.merge(j))
}

// abandon handles a ctx-terminated run: a cancelled job gets its
// terminal record; a shutdown leaves the job untouched (no terminal
// line) so the next Start resumes it.
func (m *Manager) abandon(j *job) {
	j.mu.Lock()
	cancelled := j.cancelled
	j.mu.Unlock()
	if cancelled {
		m.finishJob(j, StateCancelled, "", nil)
	}
}

// runBand runs one band under the retry policy: transient errors retry
// with capped, ±20%-jittered exponential backoff; panics and ctx errors
// never retry.
func (m *Manager) runBand(ctx context.Context, runner BandRunner, band int) (core.RegionStats, error) {
	pol := m.cfg.Retry
	var last error
	for attempt := 1; ; attempt++ {
		stats, err := m.bandAttempt(ctx, runner, band)
		if err == nil {
			return stats, nil
		}
		last = err
		if ctx.Err() != nil || attempt >= pol.MaxAttempts || !m.retryableBand(err) {
			return core.RegionStats{}, last
		}
		select {
		case <-ctx.Done():
			return core.RegionStats{}, ctx.Err()
		case <-time.After(backoff.Jitter(backoff.Capped(pol.BaseDelay, pol.MaxDelay, attempt-1), 0.2)):
		}
	}
}

// bandAttempt is one attempt with panic containment: a panic in the
// runner (or an armed JobPanic hook) becomes a *PanicError instead of
// unwinding the worker.
func (m *Manager) bandAttempt(ctx context.Context, runner BandRunner, band int) (stats core.RegionStats, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Band: band, Value: v, Stack: debug.Stack()}
		}
	}()
	if ferr := faultinject.Fire(faultinject.JobBand); ferr != nil {
		return stats, ferr
	}
	if ferr := faultinject.Fire(faultinject.JobPanic); ferr != nil {
		return stats, ferr
	}
	return runner(ctx, band)
}

func (m *Manager) retryableBand(err error) bool {
	var pe *PanicError
	var se *sweep.PanicError
	if errors.As(err, &pe) || errors.As(err, &se) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if m.cfg.Retry.Retryable != nil {
		return m.cfg.Retry.Retryable(err)
	}
	return errors.Is(err, experiment.ErrTransient)
}

// completeBand records a finished band: journal first (failure degrades
// to memory-only, never fails the band), then counters, hooks, and
// events. elapsed is the band's wall time, surfaced through
// Hooks.BandDone and the band event; the journal record deliberately
// omits it, so bands restored on resume report no phantom work.
func (m *Manager) completeBand(j *job, band int, stats core.RegionStats, elapsed time.Duration) {
	j.mu.Lock()
	j.perBand[band] = stats
	j.bandsDone = len(j.perBand)
	done := j.bandsDone
	file := j.file
	j.mu.Unlock()
	if file != nil {
		b := band
		s := stats
		if err := file.append(record{Band: &b, Stats: &s}); err != nil {
			m.noteJournalErr(err)
		} else {
			m.clearJournalErr()
		}
	}
	m.bandsDone.Add(1)
	if m.cfg.Hooks.BandDone != nil {
		m.cfg.Hooks.BandDone(j.spec.Kind, stats.Points, elapsed)
	}
	m.emit(j, Event{
		Type:      EventBand,
		State:     StateRunning,
		Band:      band,
		Slot:      j.spec.Slot(band),
		BandsDone: done,
		Bands:     j.spec.Bands(),
		Stats:     &stats,
		ElapsedNS: elapsed.Nanoseconds(),
	})
}

// merge folds the per-band stats into one RegionStats per θ slot, in
// ascending band order — the same order an uninterrupted whole-grid
// survey visits rows, so the merge is bit-identical to it.
func (m *Manager) merge(j *job) *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	res := &Result{Stats: make([]core.RegionStats, j.spec.Slots())}
	for s := 0; s < j.spec.Slots(); s++ {
		var acc core.RegionStats
		for r := 0; r < j.spec.Grid; r++ {
			acc = acc.Merge(j.perBand[s*j.spec.Grid+r])
		}
		res.Stats[s] = acc
	}
	return res
}

// finishJob moves a job to its terminal state exactly once: the fsynced
// terminal record (the durability point), then the final event,
// subscriber channel close and completion hook, and only then the
// compaction to header + terminal record. Compaction is off the
// latency path because closing the renamed-over handle can cost tens of
// milliseconds; a crash before it leaves an uncompacted terminal
// journal, which replay restores exactly like a compacted one.
func (m *Manager) finishJob(j *job, state State, errMsg string, result *Result) {
	now := time.Now()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finished = now
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	file := j.file
	j.file = nil
	subs := j.subs
	j.subs = nil
	started := j.started
	j.perBand = nil
	done := j.bandsDone
	j.mu.Unlock()

	m.bumpState(j.spec.Kind, state)
	rec := record{State: state, Error: errMsg, Result: result, FinishedNS: now.UnixNano()}
	if file != nil {
		if err := file.append(rec); err != nil {
			m.noteJournalErr(err)
			file.close()
			file = nil
		} else {
			m.clearJournalErr()
		}
	}
	ev := Event{Type: EventState, State: state, BandsDone: done, Bands: j.spec.Bands(), Error: errMsg}
	for ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	if m.cfg.Hooks.JobDone != nil {
		from := started
		if from.IsZero() {
			from = j.created
		}
		m.cfg.Hooks.JobDone(j.spec.Kind, state, now.Sub(from))
	}
	if file != nil {
		t0 := time.Now()
		if err := file.compact(rec); err != nil {
			// Non-fatal: the appended terminal record is already
			// durable, the file is just un-compacted.
			m.cfg.Logger.Printf("fvcd: job %s: compact: %v", j.id, err)
		}
		if m.cfg.Hooks.JobCompacted != nil {
			m.cfg.Hooks.JobCompacted(j.spec.Kind, time.Since(t0))
		}
	}
}

func (m *Manager) emitState(j *job, state State) {
	j.mu.Lock()
	done := j.bandsDone
	j.mu.Unlock()
	m.emit(j, Event{Type: EventState, State: state, BandsDone: done, Bands: j.spec.Bands()})
}

func (m *Manager) emit(j *job, ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (m *Manager) noteJournalErr(err error) {
	m.errMu.Lock()
	changed := m.journalErr == nil
	m.journalErr = err
	m.errMu.Unlock()
	if changed {
		m.cfg.Logger.Printf("fvcd: job journal degraded (jobs run memory-only): %v", err)
	}
}

func (m *Manager) clearJournalErr() {
	m.errMu.Lock()
	healed := m.journalErr != nil
	m.journalErr = nil
	m.errMu.Unlock()
	if healed {
		m.cfg.Logger.Printf("fvcd: job journal healed")
	}
}

// gcLoop collects terminal jobs older than TTL, deleting their journal
// files and remembering the ids (for ErrExpired) for ten more TTLs.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	iv := m.cfg.TTL / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.gcOnce(time.Now())
		}
	}
}

func (m *Manager) gcOnce(now time.Time) {
	var paths []string
	m.mu.Lock()
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && now.Sub(j.finished) > m.cfg.TTL
		path := j.path
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			m.gone[id] = now
			if path != "" {
				paths = append(paths, path)
			}
		}
	}
	for id, at := range m.gone {
		if now.Sub(at) > 10*m.cfg.TTL {
			delete(m.gone, id)
		}
	}
	m.mu.Unlock()
	for _, p := range paths {
		os.Remove(p)
	}
}

func newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("job-%d", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}
