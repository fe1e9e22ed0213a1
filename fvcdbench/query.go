package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fullview/internal/core"
	"fullview/internal/geom"
	"fullview/internal/spatial"
)

// request is one generated fvcd request.
type request struct {
	op, method, path string
	body             []byte
	shape            string // latency class of eval requests (deployment, θ)
	dep              int
	thetaPi          float64    // survey and job requests
	pts              []geom.Vec // query requests
	patch            *patch     // PATCH requests
}

// Query-scatter shape: each request carries queryPoints fresh uniform
// points; every querySampleEvery-th answer of a client is decoded and
// kept for the oracle (decoding every answer would load the client
// more than fvcd's own encoding).
const (
	queryPoints      = 1024
	querySampleEvery = 32
)

// queryGen is the query-scatter request stream: client c alternates
// het and homog, starting on deployment c, so both are always loaded.
type queryGen struct {
	ids     []string
	streams []*stream
}

func newQueryGen(seed uint64, ids []string, clients int) *queryGen {
	g := &queryGen{ids: ids}
	for c := 0; c < clients; c++ {
		g.streams = append(g.streams, newStream(seed, streamQuery+uint64(c)))
	}
	return g
}

func (g *queryGen) cycle(c int) []request {
	out := make([]request, 2)
	for j := range out {
		di := (c + j) % len(g.ids)
		out[j] = queryRequest(g.ids[di], di, g.streams[c].points(queryPoints))
	}
	return out
}

func queryRequest(id string, dep int, pts []geom.Vec) request {
	return request{op: "query", method: http.MethodPost, path: "/v1/deployments/" + id + "/query",
		body: queryBody(nil, pts), shape: fmt.Sprint("query/", dep), dep: dep, pts: pts}
}

// queryRig is the query-scatter workload: one fvcd with a state dir and
// two closed-loop clients sending scattered-point /query batches, with
// no mutations.
type queryRig struct {
	e    *env
	s    *single
	deps []*deployment
	gen  *queryGen
	cs   []*client
	sent []int
}

func newQueryRig(e *env, dir string) (rig, time.Duration, error) {
	s, deps, setup, err := bootSingle(e, dir, fixtures(e.seed, 1))
	if err != nil {
		return nil, 0, err
	}
	const clients = 2
	r := &queryRig{e: e, s: s, deps: deps, gen: newQueryGen(e.seed, idsOf(deps), clients), sent: make([]int, clients)}
	for c := 0; c < clients; c++ {
		r.cs = append(r.cs, &client{e: e, base: s.base})
	}
	return r, setup, nil
}

func (r *queryRig) clients() int                { return len(r.cs) }
func (r *queryRig) close()                      { r.s.close() }
func (r *queryRig) scrape() (promSample, error) { return scrape(r.e.hc, r.s.base) }

func (r *queryRig) cycle(c int, l *opLog) {
	t0 := time.Now()
	ok := true
	for _, q := range r.gen.cycle(c) {
		r.sent[c]++
		if !sendQuery(r.cs[c], l, q, r.sent[c]%querySampleEvery == 0) {
			ok = false
		}
	}
	if ok {
		l.cycles = append(l.cycles, time.Since(t0))
	}
}

// querySample is one /query answer kept for the oracle.
type querySample struct {
	req     uint64 // tracer id, 0 when untraced
	dep     int
	pts     []geom.Vec
	answer  queryAnswer
	evalNS  int64 // replay time of the same points through core (set by verify)
	covered int64 // Σ numCovering of the replay (set by verify)
}

// queryAnswer is fvcd's /query body.
type queryAnswer struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Results []struct {
		Point       struct{ X, Y float64 } `json:"point"`
		NumCovering int                    `json:"numCovering"`
		MaxGap      float64                `json:"maxGap"`
		PerTheta    []struct {
			ThetaPi    float64 `json:"thetaPi"`
			FullView   bool    `json:"fullView"`
			Necessary  bool    `json:"necessary"`
			Sufficient bool    `json:"sufficient"`
		} `json:"perTheta"`
	} `json:"results"`
}

// sendQuery sends one /query and, when sample is set, keeps its decoded
// answer for the oracle.
func sendQuery(c *client, l *opLog, q request, sample bool) bool {
	body, ok := c.call(l, q, http.StatusOK)
	if !ok {
		return false
	}
	l.points["query"] += int64(len(q.pts))
	l.respBytes["query"] += int64(len(body))
	if sample {
		s := &querySample{req: c.lastID, dep: q.dep, pts: q.pts}
		if err := json.Unmarshal(body, &s.answer); err != nil {
			l.fail("query: %v", err)
			return false
		}
		l.queries = append(l.queries, s)
	}
	return true
}

// check replays the sample's points through core.MultiChecker on src
// (the deployment at the version the answer reports), times the
// replay, and compares every verdict. It returns "" when all match.
func (s *querySample) check(src spatial.Source) string {
	nt := len(thetasPi)
	thetas := make([]float64, nt)
	for i, t := range thetasPi {
		thetas[i] = radians(t)
	}
	covering := make([]int, len(s.pts))
	gap := make([]float64, len(s.pts))
	bits := make([]bool, 3*nt*len(s.pts)) // fullView, necessary, sufficient per point per θ
	t0 := time.Now()
	mc, err := core.NewMultiCheckerFromSource(src, thetas)
	if err != nil {
		return err.Error()
	}
	for i, p := range s.pts {
		rep := mc.Evaluate(p)
		covering[i], gap[i] = rep.NumCovering, rep.MaxGap
		for j, pt := range rep.PerTheta {
			b := bits[3*(i*nt+j):]
			b[0], b[1], b[2] = pt.FullView, pt.Necessary, pt.Sufficient
		}
	}
	s.evalNS = time.Since(t0).Nanoseconds()
	if len(s.answer.Results) != len(s.pts) {
		return fmt.Sprintf("%d results for %d points", len(s.answer.Results), len(s.pts))
	}
	s.covered = 0
	for i, res := range s.answer.Results {
		s.covered += int64(covering[i])
		if res.Point.X != s.pts[i].X || res.Point.Y != s.pts[i].Y ||
			res.NumCovering != covering[i] || res.MaxGap != gap[i] || len(res.PerTheta) != nt {
			return fmt.Sprintf("point %d: got %+v, oracle covering %d gap %v", i, res, covering[i], gap[i])
		}
		for j, pt := range res.PerTheta {
			b := bits[3*(i*nt+j):]
			if pt.ThetaPi != thetasPi[j] || pt.FullView != b[0] || pt.Necessary != b[1] || pt.Sufficient != b[2] {
				return fmt.Sprintf("point %d θ=%gπ: got %+v", i, thetasPi[j], pt)
			}
		}
	}
	return ""
}

func (r *queryRig) endToEnd(l *opLog) e2e {
	return queryE2E(l)
}

// queryE2E is the end-to-end view of a /query-driven phase.
func queryE2E(l *opLog) e2e {
	q := l.lat["query"]
	pps := float64(l.points["query"]) / l.wall.Seconds()
	return e2e{
		evalP50:    shapeP50(l),
		evalTail:   quantile(q, 0.99),
		pointsPerS: pps,
		cycleP50:   quantile(l.cycles, 0.5),
		named: []namedMetric{
			{"query_p50_ms", "ms", quantile(q, 0.5), len(q)},
			{"query_p99_ms", "ms", quantile(q, 0.99), len(q)},
			{"query_points_per_s", "points/s", pps, int(l.points["query"])},
		},
	}
}

// verify checks every sampled answer against core at version 0: the
// workload never mutates, so every answer must report version 0.
func (r *queryRig) verify(logs []*opLog, vl *opLog) error {
	srcs := make([]spatial.Source, len(r.deps))
	for i, d := range r.deps {
		srcs[i] = spatial.NewMutableIndex(d.net, spatial.MutableOptions{}).Snapshot()
	}
	for _, l := range logs {
		for _, s := range l.queries {
			vl.checks++
			bad := s.check(srcs[s.dep])
			if bad == "" && (s.answer.Version != 0 || s.answer.ID != r.deps[s.dep].id) {
				bad = fmt.Sprintf("answer names %s version %d", s.answer.ID, s.answer.Version)
			}
			if bad != "" {
				vl.fail("query %s: %s", r.deps[s.dep].name, bad)
			}
		}
	}
	return nil
}

func (r *queryRig) beginTrace() {}

func (r *queryRig) layers(l *opLog, spans []span, before, after promSample) (map[string]float64, error) {
	m := queryLayers(l, spans, "server")
	allocs, bytes, err := replayAllocs(func(int) http.Handler { return r.s.srv.Handler() }, l.queries, r.deps)
	if err != nil {
		return nil, err
	}
	m["server.query.allocs_per_req"] = allocs
	m["server.query.alloc_bytes_per_req"] = bytes
	m["depcache.misses"] = delta(before, after, "fvcd_depcache_misses_total")
	m["depcache.hit_ratio"] = hitRatio(before, after)
	return m, nil
}
