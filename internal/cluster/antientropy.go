package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"fullview/internal/depjournal"
	"fullview/internal/faultinject"
	"fullview/internal/telemetry"
)

// Cluster-internal paths served by every replica and consumed by the
// anti-entropy reconciler. The server registers its handlers on these
// same constants, so the two sides cannot drift.
const (
	// DigestPath answers the replica's per-deployment digest map
	// (JSON: id → {digest, version}).
	DigestPath = "/v1/internal/digest"
	// SnapshotPath streams the snapshot image of the deployments named
	// by its repeated ?id= parameters (404 when any id is not
	// journaled).
	SnapshotPath = "/v1/internal/snapshot"
)

// pullChunk is the most ids one snapshot request names. A replica that
// is missing N deployments pulls them in ⌈N/pullChunk⌉ requests, each
// applied with one fsynced append; at 32-hex-char ids the request line
// stays near 18 KB, far inside net/http's header limit.
const pullChunk = 512

// AntiEntropyStore is the local side of the reconciler: the digest map
// it advertises and the apply path for repairs. internal/server
// implements it over the deployment journal and cache.
type AntiEntropyStore interface {
	// Digests returns the local per-deployment content digests.
	Digests() map[string]depjournal.DigestInfo
	// Apply installs a fetched multi-deployment snapshot stream,
	// replacing the local copy of each deployment in it. Deployments
	// whose local copy is already at or past the fetched version are
	// skipped and returned in stale (depjournal.Journal.Reinstall).
	Apply(recs []depjournal.Record) (stale []string, err error)
}

// AntiEntropyConfig parameterises NewAntiEntropy.
type AntiEntropyConfig struct {
	// Peers are the base URLs of the other replicas (required,
	// non-empty).
	Peers []string
	// Local is the replica's own store (required).
	Local AntiEntropyStore
	// Interval is the gap between periodic rounds; Start is a no-op
	// when it is zero or negative (Round stays available for manual
	// driving).
	Interval time.Duration
	// Client is the HTTP client used to reach peers (default: a
	// dedicated client with a 30s timeout).
	Client *http.Client
	// Registry receives the reconciler's metrics (default: a private
	// registry, for tests that don't care).
	Registry *telemetry.Registry
	// Logger receives repair and error lines; nil discards them.
	Logger *log.Logger
}

// AntiEntropy is the background reconciler that makes mirror loss
// self-healing. Each round it fetches every peer's digest map, compares
// against its own, and pulls only the deployments it is missing or
// behind on — per-id snapshots in chunks of pullChunk ids, not whole
// journals — applying each chunk through the store. The server also
// runs one round at boot, so a replica that lost its disk catches up
// through this same path. Divergence of any cause (dropped mirror
// batches, kill -9 mid-batch, a wiped disk) converges to bit-identical
// digests, because digests are content-canonical
// (depjournal.DigestInfo) and mutations have a single writer per id
// (the ring owner), so "higher version wins" is a true repair rule, not
// a heuristic.
type AntiEntropy struct {
	cfg    AntiEntropyConfig
	client *http.Client

	rounds *telemetry.Counter
	pulls  *telemetry.Counter
	errs   *telemetry.Counter

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewAntiEntropy builds a reconciler. It does not start the periodic
// loop — call Start for that, or drive Round directly.
func NewAntiEntropy(cfg AntiEntropyConfig) (*AntiEntropy, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: anti-entropy needs peers")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: anti-entropy needs a local store")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	a := &AntiEntropy{
		cfg:    cfg,
		client: cfg.Client,
		done:   make(chan struct{}),
	}
	a.rounds = cfg.Registry.Counter("fvcd_antientropy_rounds_total",
		"Anti-entropy reconciliation rounds completed.")
	a.pulls = cfg.Registry.Counter("fvcd_antientropy_pulls_total",
		"Deployments repaired by pulling them from a peer's snapshot.")
	a.errs = cfg.Registry.Counter("fvcd_antientropy_errors_total",
		"Anti-entropy steps that failed (digest fetch, snapshot fetch, apply); retried next round.")
	return a, nil
}

// Start launches the periodic loop (no-op when Interval <= 0 or after a
// previous Start). Stop it with Stop.
func (a *AntiEntropy) Start() {
	if a.cfg.Interval <= 0 {
		return
	}
	a.startOnce.Do(func() {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			t := time.NewTicker(a.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-a.done:
					return
				case <-t.C:
					ctx, cancel := context.WithTimeout(context.Background(), a.cfg.Interval*4+time.Second)
					a.Round(ctx)
					cancel()
				}
			}
		}()
	})
}

// Stop halts the periodic loop and waits for an in-flight round to
// finish. Safe to call without Start and to call twice.
func (a *AntiEntropy) Stop() {
	a.stopOnce.Do(func() { close(a.done) })
	a.wg.Wait()
}

// Round runs one reconciliation pass (see Reconcile) and returns the
// number of deployments repaired.
func (a *AntiEntropy) Round(ctx context.Context) int {
	pulled, _ := a.Reconcile(ctx)
	return pulled
}

// Reconcile runs one reconciliation pass over every peer and returns
// the number of deployments repaired, plus the pull and apply failures
// from peers whose digest map it did fetch. Every error is counted,
// logged, and skipped — a partitioned peer must not stall repairs from
// reachable ones — and a peer whose digest map cannot be fetched is
// not a failure at all, so a pass against an unreachable cluster is a
// cheap no-op with a nil error.
func (a *AntiEntropy) Reconcile(ctx context.Context) (int, error) {
	pulled := 0
	var errs []error
	local := a.cfg.Local.Digests()
	for _, peer := range a.cfg.Peers {
		remote, err := a.fetchDigests(ctx, peer)
		if err != nil {
			a.errs.Inc()
			a.logf("antientropy: digests from %s: %v", peer, err)
			continue
		}
		// Sorted ids make repair order (and its logs) deterministic.
		var want []string
		for id, theirs := range remote {
			ours, have := local[id]
			if have && ours.Version >= theirs.Version {
				// Equal versions with unequal digests would mean the
				// single-writer invariant broke; surface it, never
				// "repair" sideways or backwards.
				if ours.Version == theirs.Version && ours.Digest != theirs.Digest {
					a.logf("antientropy: %s diverged from %s at equal version %d (ours %s, theirs %s)",
						id, peer, ours.Version, ours.Digest, theirs.Digest)
				}
				continue
			}
			want = append(want, id)
		}
		sort.Strings(want)
		// The next chunk is fetched and parsed while the current one
		// applies, overlapping the peer round trip with the local fsync.
		fetched := make(chan fetchedChunk, 1)
		go func() {
			defer close(fetched)
			for len(want) > 0 {
				ids := want[:min(pullChunk, len(want))]
				want = want[len(ids):]
				recs, err := a.fetch(ctx, peer, ids)
				fetched <- fetchedChunk{ids, recs, err}
			}
		}()
		for f := range fetched {
			stale, err := a.apply(f)
			if err != nil {
				a.errs.Inc()
				a.logf("antientropy: pull %d deployments from %s: %v", len(f.ids), peer, err)
				errs = append(errs, fmt.Errorf("pull %d deployments from %s: %w", len(f.ids), peer, err))
				continue
			}
			// A stale id's local copy advanced past the digest snapshot
			// while this round ran (a write or mirror apply landed);
			// Reinstall's locked version re-check refused the rollback.
			// Not a fault — the next round compares fresh digests.
			lost := make(map[string]bool, len(stale))
			for _, id := range stale {
				lost[id] = true
				a.logf("antientropy: pull %s from %s lost the race to a newer local copy", id, peer)
			}
			repaired := 0
			for _, id := range f.ids {
				if !lost[id] {
					// Track the repair locally so a later peer in this
					// round is compared against the post-repair version.
					local[id] = remote[id]
					repaired++
				}
			}
			pulled += repaired
			a.pulls.Add(int64(repaired))
			a.logf("antientropy: repaired %d deployments from %s", repaired, peer)
		}
	}
	a.rounds.Inc()
	return pulled, errors.Join(errs...)
}

// fetchDigests retrieves and parses one peer's digest map.
func (a *AntiEntropy) fetchDigests(ctx context.Context, peer string) (map[string]depjournal.DigestInfo, error) {
	if err := faultinject.Fire(faultinject.DigestFetch); err != nil {
		return nil, err
	}
	body, err := a.get(ctx, peer+DigestPath)
	if err != nil {
		return nil, err
	}
	return ParseDigests(body)
}

// fetchedChunk is one chunk's fetched snapshot records, or the error
// that stopped the fetch.
type fetchedChunk struct {
	ids  []string
	recs []depjournal.Record
	err  error
}

// apply installs one fetched chunk through the local store.
func (a *AntiEntropy) apply(f fetchedChunk) (stale []string, err error) {
	if f.err != nil {
		return nil, f.err
	}
	if err := faultinject.Fire(faultinject.AntiEntropyApply); err != nil {
		return nil, err
	}
	return a.cfg.Local.Apply(f.recs)
}

// fetch retrieves the snapshot of ids from peer and checks it holds
// exactly those deployments.
func (a *AntiEntropy) fetch(ctx context.Context, peer string, ids []string) ([]depjournal.Record, error) {
	body, err := a.get(ctx, peer+SnapshotPath+"?"+url.Values{"id": ids}.Encode())
	if err != nil {
		return nil, err
	}
	recs, err := depjournal.ParseSnapshot(body)
	if err != nil {
		return nil, err
	}
	asked := make(map[string]bool, len(ids))
	for _, id := range ids {
		asked[id] = true
	}
	for i := range recs {
		if recs[i].Op == "" {
			if !asked[recs[i].ID] {
				return nil, fmt.Errorf("snapshot record %d is for %q, which was not requested (or sent twice)", i, recs[i].ID)
			}
			delete(asked, recs[i].ID)
		}
	}
	if len(asked) > 0 {
		return nil, fmt.Errorf("snapshot lacks %d of the %d requested deployments", len(asked), len(ids))
	}
	return recs, nil
}

// get fetches url and returns the body of a 200 answer.
func (a *AntiEntropy) get(ctx context.Context, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d", u, resp.StatusCode)
	}
	return body, nil
}

func (a *AntiEntropy) logf(format string, args ...any) {
	if a.cfg.Logger != nil {
		a.cfg.Logger.Printf(format, args...)
	}
}

// ParseDigests decodes a digest-endpoint body: a single JSON object
// mapping deployment ids to their DigestInfo. The decode is strict —
// unknown fields, trailing documents, missing or non-hex digests, and
// empty ids are all refused — because a malformed digest map must fail
// the round loudly rather than trigger bogus pulls.
func ParseDigests(data []byte) (map[string]depjournal.DigestInfo, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out map[string]depjournal.DigestInfo
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("cluster: digest map: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("cluster: digest map: trailing data")
	}
	for id, d := range out {
		if id == "" {
			return nil, fmt.Errorf("cluster: digest map: empty deployment id")
		}
		raw, err := hex.DecodeString(d.Digest)
		if err != nil || len(raw) != 32 {
			return nil, fmt.Errorf("cluster: digest map: %s has malformed digest %q", id, d.Digest)
		}
	}
	return out, nil
}
