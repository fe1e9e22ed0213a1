package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fullview/internal/cluster"
)

// catchupPeer is a clustered replica holding n recipe deployments,
// served over loopback TCP behind a handler that counts what the
// cluster-internal routes ship.
type catchupPeer struct {
	srv       *Server
	ts        *httptest.Server
	snapReqs  atomic.Int64 // GET /v1/internal/snapshot requests
	snapBytes atomic.Int64 // snapshot body bytes served
	digBytes  atomic.Int64 // digest-map body bytes served
}

// countingWriter adds every body byte written to n.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	k, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(k))
	return k, err
}

// newCatchupPeer journals n small recipe deployments on a standalone
// server, then reopens the same state dir as a clustered replica (its
// only peer is an unreachable port, so it neither pulls nor mirrors).
func newCatchupPeer(b *testing.B, n int) *catchupPeer {
	b.Helper()
	dir := b.TempDir()
	seed, err := New(Config{StateDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	h := seed.Handler()
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"profile":"0.3:0.2:0.4,0.7:0.1:0.5","n":6,"seed":%d}`, i+1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/deployments", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusCreated {
			b.Fatalf("register %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if err := seed.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}

	p := &catchupPeer{}
	if p.srv, err = New(Config{StateDir: dir, PeerURLs: []string{"http://127.0.0.1:1"}}); err != nil {
		b.Fatal(err)
	}
	if got := p.srv.journal.Len(); got != n {
		b.Fatalf("peer journal holds %d deployments, want %d", got, n)
	}
	inner := p.srv.Handler()
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case cluster.SnapshotPath:
			p.snapReqs.Add(1)
			w = countingWriter{w, &p.snapBytes}
		case cluster.DigestPath:
			w = countingWriter{w, &p.digBytes}
		}
		inner.ServeHTTP(w, r)
	}))
	b.Cleanup(func() {
		p.ts.Close()
		p.srv.Shutdown(context.Background())
	})
	return p
}

// serveGet answers one in-process GET through h.
func serveGet(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// BenchmarkReplicaCatchup measures how long an empty replica takes to
// catch up with a peer holding N deployments: from New until /readyz
// answers ok. It is black-box — it drives only New, /readyz and the
// internal digest route — and asserts after every run that the
// replica's digest map is byte-equal to the peer's. Reported per run:
// snapshot requests, snapshot bytes and digest-map bytes the peer
// served.
func BenchmarkReplicaCatchup(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			peer := newCatchupPeer(b, n)
			_, want := serveGet(peer.srv.Handler(), cluster.DigestPath)
			peer.snapReqs.Store(0)
			peer.snapBytes.Store(0)
			peer.digBytes.Store(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, err := New(Config{StateDir: b.TempDir(), PeerURLs: []string{peer.ts.URL}})
				if err != nil {
					b.Fatal(err)
				}
				h := srv.Handler()
				deadline := time.Now().Add(time.Minute)
				for {
					_, body := serveGet(h, "/readyz")
					if bytes.Contains(body, []byte(`"status":"ok"`)) {
						break
					}
					if !bytes.Contains(body, []byte(`"status":"starting"`)) || time.Now().After(deadline) {
						b.Fatalf("readyz %s, want ok", body)
					}
					time.Sleep(100 * time.Microsecond)
				}
				b.StopTimer()
				if code, got := serveGet(h, cluster.DigestPath); code != http.StatusOK || !bytes.Equal(got, want) {
					b.Fatalf("digest map after catch-up (%d, %d bytes) differs from the peer's (%d bytes)", code, len(got), len(want))
				}
				srv.Shutdown(context.Background())
				b.StartTimer()
			}
			b.ReportMetric(float64(peer.snapReqs.Load())/float64(b.N), "snapshot-reqs/op")
			b.ReportMetric(float64(peer.snapBytes.Load())/float64(b.N), "snapshot-B/op")
			b.ReportMetric(float64(peer.digBytes.Load())/float64(b.N), "digest-B/op")
		})
	}
}
