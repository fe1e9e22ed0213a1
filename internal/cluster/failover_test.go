package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// tripBreaker drives a router's breaker for one shard straight to open.
func tripBreaker(rt *Router, shard string) {
	b := rt.breakers[shard]
	for b.State() != BreakerOpen {
		b.Allow()
		b.Failure()
	}
}

// TestRouterReadFailsOverToSuccessor: with the owner's process gone, a
// read is served by the first ring successor, the failover is counted,
// and the breaker state series is exported.
func TestRouterReadFailsOverToSuccessor(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	seq := rt.Ring().Sequence("x")
	shardByName(shards, seq[0]).srv.Close()

	w := do(t, rt, http.MethodGet, "/v1/deployments/x", "")
	if w.Code != http.StatusOK {
		t.Fatalf("read with dead owner: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), seq[1]) {
		t.Fatalf("read served by %s, want successor %s", w.Body, seq[1])
	}

	m := do(t, rt, http.MethodGet, "/metrics", "")
	for _, series := range []string{"fvcd_cluster_failover_reads_total 1", "fvcd_breaker_state"} {
		if !strings.Contains(m.Body.String(), series) {
			t.Fatalf("metrics missing %q:\n%s", series, m.Body)
		}
	}
}

// TestRouterReadSkipsOpenBreaker: a read whose owner's breaker is open
// goes straight to the successor without burning an attempt on the
// owner — the whole point of the breaker.
func TestRouterReadSkipsOpenBreaker(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	seq := rt.Ring().Sequence("x")
	owner := shardByName(shards, seq[0])
	tripBreaker(rt, seq[0])

	w := do(t, rt, http.MethodGet, "/v1/deployments/x", "")
	if w.Code != http.StatusOK {
		t.Fatalf("read with tripped owner: %d %s", w.Code, w.Body)
	}
	if owner.hits.Load() != 0 {
		t.Fatalf("tripped owner was still attempted %d times", owner.hits.Load())
	}
	if !strings.Contains(w.Body.String(), seq[1]) {
		t.Fatalf("read served by %s, want successor %s", w.Body, seq[1])
	}
}

// TestRouterReadFailover404TriesNext: a replica answering 404 (it
// missed the id's mirror records) does not end the read — the walk
// continues to the next successor — and only when every shard says 404
// is a 404 relayed to the client.
func TestRouterReadFailover404TriesNext(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	seq := rt.Ring().Sequence("x")
	shardByName(shards, seq[0]).set(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not here")
	})

	w := do(t, rt, http.MethodGet, "/v1/deployments/x", "")
	if w.Code != http.StatusOK {
		t.Fatalf("read after owner 404: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), seq[1]) {
		t.Fatalf("read served by %s, want successor %s", w.Body, seq[1])
	}

	for _, s := range shards {
		s.set(func(w http.ResponseWriter, r *http.Request) {
			writeError(w, http.StatusNotFound, "nobody has it")
		})
	}
	w = do(t, rt, http.MethodGet, "/v1/deployments/x", "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("all-404 read answered %d, want the 404 relayed", w.Code)
	}
	if !strings.Contains(w.Body.String(), "nobody has it") {
		t.Fatalf("relayed 404 lost the shard body: %s", w.Body)
	}
}

// TestRouterWriteFastFailsOnOpenBreaker: writes never fail over — a
// dead owner with a tripped breaker means an immediate 503 with
// Retry-After, attempting nothing.
func TestRouterWriteFastFailsOnOpenBreaker(t *testing.T) {
	shards, rt := newTestCluster(t, 3, nil)
	owner := rt.Ring().Owner("x")
	tripBreaker(rt, owner)
	hitsBefore := shardByName(shards, owner).hits.Load()

	w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("write with tripped owner: %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "circuit open") {
		t.Fatalf("body %s", w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("fast-fail 503 carries no Retry-After")
	}
	if got := shardByName(shards, owner).hits.Load(); got != hitsBefore {
		t.Fatalf("fast-fail still attempted the shard (%d hits)", got-hitsBefore)
	}
}

// TestRouterBreakerTripsAndRecovers: transport failures trip the
// breaker through the forward path itself, and a half-open probe after
// the cooldown closes it again once the shard is back.
func TestRouterBreakerTripsAndRecovers(t *testing.T) {
	shards, rt := newTestCluster(t, 1, func(cfg *RouterConfig) {
		cfg.Retries = 1
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 10 * time.Millisecond
	})
	// The shard keeps its listener address but refuses connections.
	shards[0].srv.Close()
	for i := 0; i < 2; i++ {
		if w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}"); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("dead shard answered %d", w.Code)
		}
	}
	if got := rt.breakers[shards[0].name].State(); got != BreakerOpen {
		t.Fatalf("breaker state %d after %d transport failures, want open", got, 2)
	}
	w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}")
	if !strings.Contains(w.Body.String(), "circuit open") {
		t.Fatalf("tripped write not fast-failed: %s", w.Body)
	}

	// Shard comes back; after the cooldown one probe closes the breaker.
	revived := newTestShard(shards[0].name)
	t.Cleanup(revived.srv.Close)
	rt.cfg.Peers.Members[0].URL = revived.srv.URL
	time.Sleep(15 * time.Millisecond)
	if w := do(t, rt, http.MethodPatch, "/v1/deployments/x", "{}"); w.Code != http.StatusOK {
		t.Fatalf("probe after cooldown: %d %s", w.Code, w.Body)
	}
	if got := rt.breakers[shards[0].name].State(); got != BreakerClosed {
		t.Fatalf("breaker state %d after successful probe, want closed", got)
	}
}

// TestRouterBackoff pins the wait computation: a parseable Retry-After
// (fractional seconds, whitespace tolerated) is honoured verbatim;
// garbage and negatives fall back to capped exponential growth with
// jitter bounded in [d/2, 3d/2).
func TestRouterBackoff(t *testing.T) {
	_, rt := newTestCluster(t, 1, func(cfg *RouterConfig) {
		cfg.BackoffBase = 100 * time.Millisecond
		cfg.BackoffCap = 400 * time.Millisecond
	})
	for _, tc := range []struct {
		retryAfter string
		want       time.Duration
	}{
		{"0.25", 250 * time.Millisecond},
		{"2", 2 * time.Second},
		{" 0.5\t", 500 * time.Millisecond},
		{"0", 0},
	} {
		if got := rt.backoff(0, tc.retryAfter); got != tc.want {
			t.Errorf("backoff(0, %q) = %s, want %s", tc.retryAfter, got, tc.want)
		}
	}
	for _, garbage := range []string{"", "soon", "-1", "1h", "NaN", "Inf", "+Inf", "1e300", "1e10"} {
		for attempt := 0; attempt < 5; attempt++ {
			d := rt.cfg.BackoffBase << attempt
			if d > rt.cfg.BackoffCap {
				d = rt.cfg.BackoffCap
			}
			for i := 0; i < 50; i++ {
				got := rt.backoff(attempt, garbage)
				if got < d/2 || got >= d/2+d {
					t.Fatalf("backoff(%d, %q) = %s outside [%s, %s)", attempt, garbage, got, d/2, d/2+d)
				}
			}
		}
	}
}

// TestRouterReadyzProbeCache: with the TTL cache on, consecutive
// /readyz hits reuse one probe fan-out instead of re-probing every
// shard per hit.
func TestRouterReadyzProbeCache(t *testing.T) {
	shards, rt := newTestCluster(t, 3, func(cfg *RouterConfig) { cfg.ReadyCacheTTL = time.Hour })
	for _, s := range shards {
		s.set(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": ReadyOK})
		})
	}
	for i := 0; i < 5; i++ {
		if w := do(t, rt, http.MethodGet, "/readyz", ""); w.Code != http.StatusOK {
			t.Fatalf("readyz hit %d: %d %s", i, w.Code, w.Body)
		}
	}
	for _, s := range shards {
		if got := s.hits.Load(); got != 1 {
			t.Fatalf("shard %s probed %d times across 5 cached /readyz hits, want 1", s.name, got)
		}
	}
}

// TestRouterReadyzCacheSurvivesCancelledPoller: the cached probe runs
// detached from the triggering caller's context, so a poller arriving
// with an already-cancelled (or nearly-expired) context cannot poison
// the shared cache with failed probes for a whole TTL.
func TestRouterReadyzCacheSurvivesCancelledPoller(t *testing.T) {
	shards, rt := newTestCluster(t, 2, func(cfg *RouterConfig) { cfg.ReadyCacheTTL = time.Hour })
	for _, s := range shards {
		s.set(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": ReadyOK})
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sr := range rt.cachedShards(ctx) {
		if sr.Status != ReadyOK {
			t.Fatalf("cancelled poller cached status %q for %s, want %q", sr.Status, sr.Name, ReadyOK)
		}
	}
	// Whatever that first poller cached is now everyone's answer for the
	// TTL; a healthy poller must still see the cluster as ok.
	if w := do(t, rt, http.MethodGet, "/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz after a cancelled poller's probe: %d %s", w.Code, w.Body)
	}
}

// TestRouterReadAllShardsDown: when no shard can serve the read the
// router sheds with its own 503 + Retry-After, naming the tried count.
func TestRouterReadAllShardsDown(t *testing.T) {
	shards, rt := newTestCluster(t, 2, nil)
	for _, s := range shards {
		s.srv.Close()
	}
	w := do(t, rt, http.MethodGet, "/v1/deployments/x", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), fmt.Sprintf("%d tried", len(shards))) {
		t.Fatalf("body %s", w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("router 503 carries no Retry-After")
	}
}
