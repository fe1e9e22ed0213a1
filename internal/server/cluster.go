package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fullview/internal/backoff"
	"fullview/internal/cluster"
	"fullview/internal/depcache"
	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/telemetry"
)

// Cluster-internal routes. They sit off the admission gate — replica
// traffic must not compete with client compute for slots — and exist
// only on clustered servers (Config.PeerURLs non-empty). The paths are
// the cluster package's constants, so the anti-entropy reconciler and
// the handlers it talks to cannot drift apart.
const (
	snapshotRoute = "GET " + cluster.SnapshotPath
	mirrorRoute   = "POST /v1/internal/mirror"
	digestRoute   = "GET " + cluster.DigestPath
)

// DeploymentIDFromRequest computes the deployment id — the network's
// content fingerprint — that a POST /v1/deployments body would be
// assigned, without registering anything. It runs the exact
// registration build path, so the id always matches what the owning
// shard will answer; the cluster router uses it to place registrations
// on the ring. The body is validated as strictly as the registration
// handler validates it (camera caps use the default configuration).
func DeploymentIDFromRequest(body []byte) (string, error) {
	var req registerRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", fmt.Errorf("malformed registration: %v", err)
	}
	if dec.More() {
		return "", errors.New("trailing data after JSON body")
	}
	shim := &Server{cfg: Config{}.withDefaults()}
	net, err := shim.buildNetwork(&req)
	if err != nil {
		return "", err
	}
	return depcache.Fingerprint(net), nil
}

// mirrorBatch is the wire body of POST /v1/internal/mirror: journal
// records — registrations and mutations, in append order — that a peer
// replica appended and is replicating here.
type mirrorBatch struct {
	Records []depjournal.Record `json:"records"`
}

// clusterState is the per-server cluster machinery: the async journal
// mirror (sender side), the anti-entropy reconciler and the cluster
// metric series. Present only on clustered servers.
//
// The cluster's data model is "shared-nothing compute, mirrored
// metadata": the spatial indexes and the coverage compute are sharded
// by the consistent-hash ring, but the deployment journal — tiny
// compared to the indexes it describes — is asynchronously replicated
// to every peer. That one decision buys the whole failure story: a
// dead peer's replacement pulls the history from any replica's journal
// in its boot anti-entropy round, a mis-routed request still answers
// correctly (the journal revives any deployment anywhere), and
// membership changes need no data-migration protocol.
type clusterState struct {
	peers  []string // normalized peer base URLs
	client *http.Client

	snapshotBytes *telemetry.Counter
	mirrorSent    *telemetry.Counter
	mirrorRetries *telemetry.Counter
	mirrorDropped *telemetry.Counter
	mirrorApplied *telemetry.Counter
	mirrorStale   *telemetry.Counter

	// antientropy is the periodic digest reconciler; present whenever
	// the server is clustered with a durable journal (its loop only
	// runs when Config.AntiEntropyInterval is set, but Round stays
	// drivable for tests and tools).
	antientropy *cluster.AntiEntropy

	// queues holds one FIFO per peer, so mirrored records reach each
	// peer in local append order (per-deployment order is what
	// correctness needs, and each deployment has exactly one appending
	// owner). pending counts enqueued batches not yet posted or
	// dropped, for FlushMirror.
	queues  map[string]chan []depjournal.Record
	pending atomic.Int64
	done    chan struct{}
	wg      sync.WaitGroup
}

// mirrorQueueDepth bounds each peer's unsent mirror queue. A peer that
// stays unreachable long enough to overflow it loses those records
// from the mirror stream — and pulls them back in its next
// anti-entropy round, which is why overflow drops (counted, logged)
// instead of blocking the write path.
const mirrorQueueDepth = 256

// newClusterState wires the mirror machinery onto s. Called from New
// before openState; the anti-entropy reconciler is added once the
// journal is open (newAntiEntropy).
func newClusterState(s *Server) *clusterState {
	c := &clusterState{
		peers:  make([]string, 0, len(s.cfg.PeerURLs)),
		client: &http.Client{Timeout: 30 * time.Second},
		snapshotBytes: s.m.reg.Counter("fvcd_cluster_snapshot_bytes_total",
			"Bytes of journal snapshot streamed to peers' anti-entropy pulls."),
		mirrorSent: s.m.reg.Counter("fvcd_cluster_mirror_sent_total",
			"Journal record batches mirrored to a peer successfully."),
		mirrorRetries: s.m.reg.Counter("fvcd_mirror_retries_total",
			"Mirror post attempts retried after a transient failure, before the batch was sent or dropped."),
		mirrorDropped: s.m.reg.Counter("fvcd_cluster_mirror_dropped_total",
			"Journal record batches dropped from the mirror stream (queue overflow or peer unreachable past retries)."),
		mirrorApplied: s.m.reg.Counter("fvcd_cluster_mirror_applied_total",
			"Journal records applied from peer mirror batches."),
		mirrorStale: s.m.reg.Counter("fvcd_cluster_mirror_stale_total",
			"Mirrored records skipped because the local copy already held their version (duplicate delivery)."),
		queues: make(map[string]chan []depjournal.Record),
		done:   make(chan struct{}),
	}
	for _, u := range s.cfg.PeerURLs {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		c.peers = append(c.peers, u)
		q := make(chan []depjournal.Record, mirrorQueueDepth)
		c.queues[u] = q
		c.wg.Add(1)
		go c.mirrorWorker(s, u, q)
	}
	return c
}

// mirrorWorker drains one peer's queue, posting each batch with
// bounded retries. Exits on close; batches still queued at shutdown
// are abandoned (the peer heals in its next anti-entropy round).
func (c *clusterState) mirrorWorker(s *Server, peer string, q chan []depjournal.Record) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case batch := <-q:
			if c.postMirror(s, peer, batch) {
				c.mirrorSent.Inc()
			} else {
				c.mirrorDropped.Inc()
				s.logf("cluster: mirror to %s dropped %d records (peer unreachable past retries)", peer, len(batch))
			}
			c.pending.Add(-1)
		}
	}
}

// Mirror retry policy: each batch gets mirrorAttempts tries, with
// doubling backoff from mirrorBackoffBase capped at mirrorBackoffCap
// (25ms, 50ms, 100ms… never past 400ms). Short and bounded on purpose:
// the worker is serial per peer, so time spent retrying one batch is
// head-of-line latency for every batch behind it, and anything the
// retries cannot save is the anti-entropy reconciler's job anyway.
// These bounds ride out a peer restart or a dropped connection — the
// common transient blips — without turning the queue into a stall.
const (
	mirrorAttempts    = 4
	mirrorBackoffBase = 25 * time.Millisecond
	mirrorBackoffCap  = 400 * time.Millisecond
)

// postMirror sends one batch to one peer, retrying transport errors
// and retryable statuses per the policy above. Retried attempts count
// in fvcd_mirror_retries_total; only exhausting them makes the batch a
// drop. The faultinject.MirrorDrop point fails individual attempts,
// exactly like a transport error would.
func (c *clusterState) postMirror(s *Server, peer string, batch []depjournal.Record) bool {
	body, err := json.Marshal(mirrorBatch{Records: batch})
	if err != nil {
		s.logf("cluster: encode mirror batch: %v", err)
		return false
	}
	for attempt := 0; attempt < mirrorAttempts; attempt++ {
		if attempt > 0 {
			c.mirrorRetries.Inc()
			select {
			case <-c.done:
				return false
			case <-time.After(backoff.Capped(mirrorBackoffBase, mirrorBackoffCap, attempt-1)):
			}
		}
		if err := faultinject.Fire(faultinject.MirrorDrop); err != nil {
			continue
		}
		req, err := http.NewRequest(http.MethodPost, peer+"/v1/internal/mirror", bytes.NewReader(body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 300 {
			return true
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < 500 {
			// A non-retryable answer (e.g. the peer rejects the batch as
			// malformed) will not improve with repetition.
			return false
		}
	}
	return false
}

// close stops the mirror workers. Called from Shutdown after the HTTP
// drain, so no handler is still enqueueing.
func (c *clusterState) close() {
	close(c.done)
	c.wg.Wait()
}

// mirrorRecords fans a freshly appended batch out to every peer queue.
// Non-blocking by design: the client's request was already durable
// locally when this runs, and a slow peer must not add latency (or
// failure) to it. An overflowing queue drops the batch for that peer —
// counted — and the peer heals in its next anti-entropy round.
func (s *Server) mirrorRecords(recs []depjournal.Record) {
	c := s.cluster
	if c == nil || len(recs) == 0 {
		return
	}
	for _, q := range c.queues {
		c.pending.Add(1)
		select {
		case q <- recs:
		default:
			c.pending.Add(-1)
			c.mirrorDropped.Inc()
		}
	}
}

// FlushMirror blocks until every enqueued mirror batch has been posted
// or dropped, or ctx expires. A deterministic synchronization point
// for tests and drain scripts; production code never needs it (the
// mirror is asynchronous by contract).
func (s *Server) FlushMirror(ctx context.Context) error {
	c := s.cluster
	if c == nil {
		return nil
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if c.pending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// handleSnapshot streams the snapshot image of the deployments named
// by the repeated ?id= parameters — what the anti-entropy reconciler
// fetches to repair the deployments it is missing or behind on. Any
// unknown id answers 404 before a body byte goes out (SnapshotIDs
// writes nothing then). Appends are not paused (depjournal copies under
// lock and encodes outside it); records landing mid-stream are simply
// not in this image and reach the peer through the mirror or its next
// round instead.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "no durable journal on this replica")
		return
	}
	ids := r.URL.Query()["id"]
	if len(ids) == 0 {
		writeError(w, http.StatusBadRequest, "snapshot needs at least one ?id=")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	n, err := s.journal.SnapshotIDs(w, ids)
	if errors.Is(err, depjournal.ErrNotFound) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.cluster.snapshotBytes.Add(n)
	if err != nil {
		// Headers are gone; all we can do is cut the stream so the peer
		// sees a truncated (and therefore refused) snapshot.
		s.logf("cluster: snapshot of %d deployments failed after %d bytes: %v", len(ids), n, err)
		panic(http.ErrAbortHandler)
	}
}

// handleDigest answers the replica's per-deployment digest map — the
// anti-entropy comparison input. Cheap enough to serve on demand
// (sha256 over journal records already in memory), and always computed
// fresh: a stale digest would mask exactly the divergence the endpoint
// exists to reveal.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "no durable journal on this replica")
		return
	}
	writeJSON(w, http.StatusOK, s.journal.Digests())
}

// handleMirror applies a peer's mirror batch to the local journal:
// registrations append (idempotent on known ids), mutations append to
// their deployment's history. Any locally cached entry for a mirrored
// id is invalidated — its state advanced on the owning shard, so the
// next local use must rebuild from the journal. A journal write
// failure answers 503 + Retry-After (the peer retries); a mutation
// whose registration never arrived here is answered 422 and dropped —
// retrying cannot fix it, and the gap heals at the next anti-entropy
// round.
//
// Mutation records arrive stamped with the logical version they
// produce (applyPatch stamps them), which makes the apply idempotent
// and gap-safe against the anti-entropy repair path racing the mirror:
// a record at or below the local version is a duplicate (an AE pull
// already covered it, or the peer re-sent) and is skipped; a record
// more than one ahead means intervening mutations were lost here, and
// appending it would fabricate a history the owner never had — it is
// skipped too, and the reconciler pulls the authoritative copy
// instead. Unstamped records (version 0: a pre-stamping peer) apply
// unconditionally, the old behaviour.
func (s *Server) handleMirror(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeError(w, http.StatusNotFound, "no durable journal on this replica")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var batch mirrorBatch
	if err := decodeBody(r, &batch); err != nil {
		writeDecodeError(w, err)
		return
	}
	applied := 0
	for _, rec := range batch.Records {
		var err error
		if rec.Op == "" {
			err = s.journal.Append(rec)
		} else if v, ok := s.journal.Version(rec.ID); ok && rec.BaseVersion != 0 && rec.BaseVersion != v+1 {
			if rec.BaseVersion <= v {
				s.cluster.mirrorStale.Inc()
			} else {
				s.logf("cluster: mirror gap for %s: record is version %d, local is %d (anti-entropy will repair)",
					rec.ID, rec.BaseVersion, v)
			}
			continue
		} else {
			err = s.journal.AppendMutations(rec.ID, []depjournal.Record{rec})
		}
		switch {
		case err == nil:
			applied++
			s.cache.Invalidate(rec.ID)
		case errors.Is(err, depjournal.ErrUnknownID):
			s.logf("cluster: mirror skipped %s mutation for unknown id %s", rec.Op, rec.ID)
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("mutation for id %s this replica never saw registered", rec.ID))
			s.cluster.mirrorApplied.Add(int64(applied))
			return
		default:
			s.setJournalErr(err)
			writeRetryable(w, http.StatusServiceUnavailable, "journal write failed: "+err.Error())
			s.cluster.mirrorApplied.Add(int64(applied))
			return
		}
	}
	s.setJournalErr(nil)
	s.cluster.mirrorApplied.Add(int64(applied))
	w.WriteHeader(http.StatusNoContent)
}

// antiEntropyStore adapts the server to cluster.AntiEntropyStore: the
// digest side reads the journal, the apply side reinstalls the fetched
// records and invalidates any cached entry so the next use rebuilds
// from the repaired journal. Applies deliberately do NOT re-mirror —
// every replica reconciles for itself, so echoing a repair back into
// the mirror stream would only add duplicate deliveries.
type antiEntropyStore struct{ s *Server }

func (a antiEntropyStore) Digests() map[string]depjournal.DigestInfo {
	return a.s.journal.Digests()
}

func (a antiEntropyStore) Apply(recs []depjournal.Record) ([]string, error) {
	stale, err := a.s.journal.Reinstall(recs)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Op == "" {
			a.s.cache.Invalidate(r.ID)
		}
	}
	return stale, nil
}

// newAntiEntropy builds the reconciler once the journal is open and
// runs the boot round: one Reconcile before New returns, so a replica
// that lost its disk — or fell behind while down — holds its peers'
// history before it takes a PATCH or a registration. Peers that cannot
// be reached make a cold start (the whole-cluster first boot); a failed
// pull from a peer that did answer leaves readiness degraded. The
// periodic loop starts afterwards, and only when an interval was
// configured; Round stays drivable either way.
func (s *Server) newAntiEntropy() {
	ae, err := cluster.NewAntiEntropy(cluster.AntiEntropyConfig{
		Peers:    s.cluster.peers,
		Local:    antiEntropyStore{s},
		Interval: s.cfg.AntiEntropyInterval,
		Client:   s.cluster.client,
		Registry: s.m.reg,
		Logger:   s.cfg.Logger,
	})
	if err != nil {
		// Unreachable by construction (peers and store are non-nil when
		// this runs), but a reconciler must never take the server down.
		s.logf("cluster: anti-entropy disabled: %v", err)
		return
	}
	s.cluster.antientropy = ae
	pulled, err := ae.Reconcile(context.Background())
	if err != nil {
		s.catchupErr = err
		s.logf("cluster: boot anti-entropy round failed, serving degraded: %v", err)
	} else if pulled > 0 {
		s.logf("cluster: boot anti-entropy round pulled %d deployments from peers", pulled)
	}
	ae.Start()
}

// AntiEntropyRound runs one reconciliation pass immediately and
// returns the number of deployments repaired. Deterministic driver for
// tests and operational tooling; returns 0 on non-clustered servers.
func (s *Server) AntiEntropyRound(ctx context.Context) int {
	if s.cluster == nil || s.cluster.antientropy == nil {
		return 0
	}
	return s.cluster.antientropy.Round(ctx)
}
