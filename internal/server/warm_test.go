package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullview/internal/cluster"
)

// TestClusterWarmRefusesSnapshotCutMidLine: a peer answers the boot
// round's snapshot pull 200 but the body was cut mid-way through its
// last record. The replica must not install the intact prefix as if it
// were the whole pull: it starts cold and /readyz reports degraded.
func TestClusterWarmRefusesSnapshotCutMidLine(t *testing.T) {
	// A real journal image (header + two registrations) stands in for
	// the peer's snapshot of both ids: both are the compacted JSONL
	// format.
	srcDir := t.TempDir()
	src := mustNew(t, Config{StateDir: srcDir})
	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		rec := do(t, src.Handler(), "POST", "/v1/deployments", camerasBody(t, testNetwork(t, 10, seed)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
		}
		var reg registerResponse
		decode(t, rec, &reg)
		ids = append(ids, reg.ID)
	}
	image, err := os.ReadFile(filepath.Join(srcDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(image), "\n"); n != 3 {
		t.Fatalf("source journal has %d lines, want header + 2 registrations", n)
	}
	cut := image[:len(image)-len(image)/8]

	digests, err := json.Marshal(src.journal.Digests())
	if err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == cluster.DigestPath:
			w.Write(digests)
		case r.Method == http.MethodGet && r.URL.Path == cluster.SnapshotPath:
			w.Write(cut)
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()

	dir := t.TempDir()
	srv := mustNew(t, Config{StateDir: dir, PeerURLs: []string{peer.URL}})
	h := srv.Handler()
	deadline := time.Now().Add(5 * time.Second)
	var ready struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	for {
		decode(t, do(t, h, "GET", "/readyz", nil), &ready)
		if ready.Status != ReadyStarting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz stuck at starting")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ready.Status != ReadyDegraded || !strings.Contains(ready.Reason, "boot catch-up from peers failed") {
		t.Fatalf("readyz = %+v, want degraded with a catch-up-failure reason", ready)
	}
	for _, id := range ids {
		if rec := do(t, h, "GET", "/v1/deployments/"+id, nil); rec.Code != http.StatusNotFound {
			t.Errorf("deployment %s after a refused pull: %d, want 404 (cold start)", id, rec.Code)
		}
	}
	if srv.journal.Len() != 0 {
		t.Errorf("journal holds %d deployments after a refused pull, want 0", srv.journal.Len())
	}
}
