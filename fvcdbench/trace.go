package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries a client request's id to the next hop: the client
// sets it, the router wrapper moves it into the forwarded request's
// context, and the benchmark RoundTripper writes it back out to the
// shard. fvcd itself never reads it.
const spanHeader = "X-Fvcdbench-Span"

type spanKey struct{}

// span is one timed layer crossing. Spans of one client request share
// req; req 0 marks traffic no client sent (replica-to-replica mirror).
type span struct {
	req        uint64
	layer      string // client, router, forward, server
	route      string // query, survey, mutate, mirror, jobs, register, other
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer records spans in memory while on; while off every wrapper is a
// pass-through, so the untraced phase measures fvcd alone.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// newRequestID returns the id a traced client request carries (0 when
// tracing is off).
func (t *tracer) newRequestID() uint64 {
	if !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// routeOf classifies an fvcd request by method and path.
func routeOf(method, path string) string {
	switch {
	case strings.HasSuffix(path, "/query"):
		return "query"
	case strings.HasSuffix(path, "/survey"):
		return "survey"
	case method == http.MethodPatch:
		return "mutate"
	case path == "/v1/internal/mirror":
		return "mirror"
	case strings.HasPrefix(path, "/v1/jobs"):
		return "jobs"
	case method == http.MethodPost && path == "/v1/deployments":
		return "register"
	}
	return "other"
}

// handler wraps an fvcd handler (a replica's Server.Handler or the
// Router.Handler) and times each request as a span of the given layer.
// The request id arrives in spanHeader; the router layer also places
// it in the request context, where the RoundTripper picks it up.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if layer == "router" {
			r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
		}
		s := span{req: id, layer: layer, route: routeOf(r.Method, r.URL.Path), start: time.Now()}
		h.ServeHTTP(w, r)
		s.end = time.Now()
		t.record(s)
	})
}

// transport is the router's shard client transport: it copies the
// request id from the context into spanHeader and records one forward
// span per attempt, from dispatch until the relayed body is closed.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tr.t.on.Load() {
		return tr.base.RoundTrip(r)
	}
	id, _ := r.Context().Value(spanKey{}).(uint64)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	s := span{req: id, layer: "forward", route: routeOf(r.Method, r.URL.Path), start: time.Now()}
	resp, err := tr.base.RoundTrip(r)
	if err != nil {
		s.end = time.Now()
		tr.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

// spanBody ends a forward span when the router closes the shard body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.record(b.s)
	})
	return err
}
