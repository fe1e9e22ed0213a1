package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"fullview/internal/server"
)

// single is one standalone fvcd with a state dir, serving over
// loopback behind the tracing wrapper.
type single struct {
	e    *env
	dir  string
	srv  *server.Server
	http *httpServer
	base string
}

// bootSingle builds the server, then binds and serves — fvcd's own
// start-up order — and registers the fixtures. It returns the setup
// time: construction until every fixture is registered and /readyz is
// ok.
func bootSingle(e *env, dir string, fs []fixture) (*single, []*deployment, time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(server.Config{StateDir: dir})
	if err != nil {
		return nil, nil, 0, err
	}
	ln, err := listen(0)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, nil, 0, err
	}
	s := &single{e: e, dir: dir, srv: srv, http: serve(ln, e.tr.handler("server", srv.Handler()))}
	s.base = "http://" + ln.Addr().String()
	ids, err := register(e, s.base, fs)
	if err == nil {
		err = waitFor("readyz", func() bool { return ready(e.hc, s.base) })
	}
	setup := time.Since(t0)
	if err != nil {
		s.close()
		return nil, nil, 0, err
	}
	deps, err := deploymentsOf(fs, ids)
	if err != nil {
		s.close()
		return nil, nil, 0, err
	}
	return s, deps, setup, nil
}

func (s *single) close() {
	s.http.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

// jobsDir is where the server journals jobs.
func (s *single) jobsDir() string { return filepath.Join(s.dir, "jobs") }

// register posts every fixture's recipe to base and returns the ids.
func register(e *env, base string, fs []fixture) ([]string, error) {
	c := &client{e: e, base: base}
	ids := make([]string, len(fs))
	for i, f := range fs {
		code, body, _, err := c.do(http.MethodPost, "/v1/deployments", f.registerBody())
		if err != nil {
			return nil, err
		}
		if code != http.StatusCreated && code != http.StatusOK {
			return nil, fmt.Errorf("register %s: status %d: %s", f.name, code, body)
		}
		var r struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("register %s: %w", f.name, err)
		}
		ids[i] = r.ID
	}
	return ids, nil
}

// deploymentsOf pairs each fixture with its registered id.
func deploymentsOf(fs []fixture, ids []string) ([]*deployment, error) {
	deps := make([]*deployment, len(fs))
	for i, f := range fs {
		d, err := newDeployment(f, ids[i])
		if err != nil {
			return nil, err
		}
		deps[i] = d
	}
	return deps, nil
}
